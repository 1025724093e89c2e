import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sugeo.coords import _Eigenbasis, _eigh, _log_rows, apply_bch, change_coords, change_coords_forward, unitary_from_coords
from sugeo.errors import (
    DimensionLimit,
    DimensionMismatch,
    InconsistentPenalties,
    NoConvergence,
    NonFiniteInput,
    NotSmoothMetric,
    OutsidePatch,
    SingularHessian,
    StepLimitExceeded,
    TooFewSamples,
    UnsupportedCoefficient,
    UnsupportedSpec,
    ZeroVector,
)
import sugeo
from sugeo import geodesic, metrics, pauli
from sugeo.geodesic import (
    Curve,
    additive_triple_check,
    curve_length,
    _embed_indices,
    el_residual,
    f_squared_gradients,
    pauli_geodesic,
    pauli_geodesic_curve,
    shoot_geodesic,
    tensor_product_curve,
)
from sugeo.metrics import F1, F1DELTA, F2, FP, FPDELTA, FQ, MetricSpec, PenaltyFunction, norm
from sugeo.pauli import (
    SU, U, PauliVector, algebra, bracket, coefficients, qubits_of_dimension, stabilizer_span, to_matrix,
)

from oracles import fd_el_residual, fd_f_squared_gradients, matrix_shoot, metric_in_pauli_coords

F2_SPEC = MetricSpec(family=F2)
PEN1 = PenaltyFunction(kind="step", k=4.0, low_weight_cutoff=1)
PEN2 = PenaltyFunction(kind="step", k=4.0, low_weight_cutoff=2)


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


def _count_chart_passes(monkeypatch):
    """Record the rows of every chart pass (geodesic._cayley_phases) and of every np.linalg.solve."""
    passes, solves = [], []
    cayley, solve = geodesic._cayley_phases, np.linalg.solve
    monkeypatch.setattr(geodesic, "_cayley_phases", lambda M: passes.append(len(M)) or cayley(M))
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: solves.append(len(a)) or solve(a, b))
    return passes, solves


def _f2_error(curve, y0):
    """Largest distance of a one-qubit F2 shot from x0 = 0 from exp(-i t y0.sigma) at its times."""
    lam, V = np.linalg.eigh(algebra(np.asarray(y0, dtype=float)[None], 1, SU)[0])
    exact = (V * np.exp(-1j * np.outer(curve.ts, lam))[:, None, :]) @ V.conj().T
    return float(np.max(np.abs(curve.unitaries() - exact)))


@pytest.mark.parametrize("a, t_end, steps, charts", [
    (30.0, 6.5, 6500, 66),
    (300.0, 1.0, 100, 101),  # every sample re-anchors: a 3-radian turn a step
])
def test_long_curves_chart_within_twice_their_rows(monkeypatch, a, t_end, steps, charts):
    """A pass charts min(_ROWS, twice what the last one advanced), so a curve of any number of
    charts takes at most 2 (samples - 1) + _ROWS charted rows, with no cap on the charts."""
    passes, _ = _count_chart_passes(monkeypatch)
    curve = shoot_geodesic(F2_SPEC, np.zeros(3), np.array([a, 0.0, 0.0]), t_end, steps=steps)
    assert len(curve.segments) == curve.stats["segments"] == charts
    assert passes[0] == min(geodesic._ROWS, steps) and sum(passes) <= 2 * steps + geodesic._ROWS
    assert _f2_error(curve, (a, 0.0, 0.0)) < 1e-9


@pytest.mark.parametrize("y0, t_end, steps", [
    ((np.pi, 0.0, 0.0), 1.0, 1),
    ((np.pi, 0.0, 0.0), 1.0, 2),
    ((1.0, 2.0, 2.0), np.pi / 3, 1),
])
def test_a_sample_on_the_cut_becomes_an_anchor(y0, t_end, steps):
    """The last sample is exp(-i pi X) = -I, or its like, up to rounding: it used to raise
    BranchCut, though it only becomes the next anchor and its phases are never read."""
    curve = shoot_geodesic(F2_SPEC, np.zeros(3), np.array(y0), t_end, steps=steps)
    assert curve.segments[-1] == steps
    assert _f2_error(curve, y0) < 1e-12


def test_reconstruction_takes_one_stacked_exponential(monkeypatch):
    """The RK4 phase takes no exponential and no chart log; the rebuild takes one eigh stack.

    The chart charts the 37 samples in one stacked Cayley pass (one solve and one eigh of
    the whole stack, no per-sample solve) and reads both x and y from it.
    """
    passes, solves = _count_chart_passes(monkeypatch)
    eighs, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: eighs.append(len(a)) or eigh(a, *args))
    steps = 37
    shoot_geodesic(MetricSpec(family=FQ, penalty=PEN1), np.zeros(15), np.linspace(0.1, 0.5, 15), 0.2, steps=steps)
    assert passes == solves == [steps]
    assert [rows for rows in eighs if rows > 1] == [steps, steps]  # the rebuild, then the chart


def test_one_eigendecomposition_of_x0_per_shot(monkeypatch):
    """A shot runs three Hermitian eigensolves: x0, whose spectrum gives H0, U0 and the chart's
    row 0, the reconstruction's stacked exponential and the chart's one pass (37 < _ROWS rows)."""
    eighs, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: eighs.append(len(a)) or eigh(a, *args))
    x0 = PauliVector.from_terms(2, {"XI": 0.3, "ZZ": -0.5, "YX": 0.2}).entries
    curve = shoot_geodesic(MetricSpec(family=FQ, penalty=PEN1), x0, np.linspace(0.1, 0.5, 15), 0.2, steps=37)
    assert eighs == [1, 37, 37]
    assert np.array_equal(curve.xs[0], x0)
    assert np.max(np.abs(curve.ys[0] - np.linspace(0.1, 0.5, 15))) < 1e-13


def _residual_curves():
    """A shot over three charts, a Pauli geodesic and a tensor product, each with its spectrum."""
    fq = MetricSpec(FQ, penalty=PEN1)
    shot = shoot_geodesic(fq, np.zeros(15), 2.0 * (np.linspace(-1.0, 1.0, 15) + 0.1), 1.0, steps=200)
    line = pauli_geodesic_curve(fq, PauliVector.from_terms(2, {"ZI": 0.7, "IZ": 0.2, "ZZ": -0.3}), 1.0)
    spec1 = MetricSpec(FQ, penalty=PenaltyFunction(kind="step", k=3.0, low_weight_cutoff=1))
    ca = shoot_geodesic(spec1, np.zeros(3), np.array([0.9, 0.5, -0.3]), 2.4, steps=480)
    cb = shoot_geodesic(spec1, np.zeros(3), np.array([-0.4, 0.8, 0.6]), 2.4, steps=480)
    return [(fq, shot), (fq, line), (spec1, tensor_product_curve(ca, cb, spec1))]


def test_el_residual_reads_the_stored_spectrum(monkeypatch):
    """el_residual runs no eigh on a shot, a Pauli geodesic or a tensor product; the same curve
    read back from JSON, whose constructor eigensolves, gives the same residual."""
    curves = _residual_curves()
    assert len(curves[0][1].segments) == 3 and len(curves[2][1].segments) >= 2
    eighs, eigh = [], np.linalg.eigh
    with monkeypatch.context() as m:
        m.setattr(np.linalg, "eigh", lambda *a: eighs.append(1) or eigh(*a))
        stored = [el_residual(spec, curve) for spec, curve in curves]
    assert eighs == []
    read = [el_residual(spec, Curve.from_json(curve.to_json())) for spec, curve in curves]
    assert stored[0] == pytest.approx(read[0], rel=1e-6)  # np.gradient's error in d/dt
    assert max(stored[1:] + read[1:]) < 1e-8  # rounding only: x(t) is exact on both


@pytest.mark.parametrize("spec, coeffs, stabilizer", [
    (MetricSpec(FPDELTA, penalty=PEN1, delta=1e-4), {"XX": 0.5, "ZZ": -0.4, "YY": 0.3}, True),
    (MetricSpec(FQ, penalty=PEN1), {"ZI": 0.7, "IZ": 0.2, "ZZ": -0.3}, True),
    (MetricSpec(FQ, penalty=PEN1), {"ZZ": 0.6}, True),  # doubly degenerate: clustered on every sample
    (MetricSpec(FPDELTA, penalty=PEN1, delta=1e-4), {"XX": 0.5, "YY": 0.5}, True),
    (MetricSpec(FQ, penalty=PenaltyFunction(kind="step", k=100.0, low_weight_cutoff=1)),
     {"XI": 0.9, "ZZ": 0.7, "IY": 0.4}, False),
])
def test_stored_spectrum_matches_the_eigh_path(spec, coeffs, stabilizer):
    """A Pauli geodesic's spectrum (t lam0, V0) against one eigh per sample after a JSON round trip."""
    curve = pauli_geodesic_curve(spec, PauliVector.from_terms(2, coeffs), 1.0, num_samples=801)
    lam, V = curve.spectrum
    assert np.max(np.abs((V * lam[:, None, :]) @ np.swapaxes(V.conj(), -1, -2) - algebra(curve.xs, 2, SU))) < 1e-14
    stored, read = el_residual(spec, curve), el_residual(spec, Curve.from_json(curve.to_json()))
    if stabilizer:
        assert stored < 1e-6 and read < 1e-6
    else:
        assert stored > 1e-2 and stored == pytest.approx(read, rel=1e-9)


# ---------------------------------------------------------------------------
# the shared eigenbasis of a Pauli geodesic

SHARED_SPECS = [MetricSpec(FQ, penalty=PEN1), MetricSpec(FPDELTA, penalty=PEN1, delta=1e-4),
                MetricSpec(F1DELTA, delta=1e-3), F2_SPEC]
STABILIZERS = {1: ["Y"], 2: ["XX", "ZZ"], 3: ["XXX", "ZZI", "IZZ"], 4: ["XXXX", "ZZII", "IZZI", "IIZZ"]}


def _h0(kind, n, mode, rng):
    """A generic, a Z-only or a stabilizer-supported h0 with max |eig(H0)| = 2."""
    strings = pauli.pauli_strings(n, mode)
    support = {"generic": strings, "Z": [s for s in strings if set(s) <= set("IZ")],
               "stabilizer": stabilizer_span(STABILIZERS[n]).elements}[kind]
    h0 = np.array([rng.standard_normal() if s in support else 0.0 for s in strings])
    return 2.0 * h0 / np.abs(np.linalg.eigvalsh(to_matrix(PauliVector(n, mode, h0)))).max()


def _per_sample_gradients(spec, ys, spectrum):
    """f_squared_gradients composed of algebra, hat, unhat and coefficients, sample by sample."""
    n = qubits_of_dimension(ys.shape[1], spec.mode)
    E = _Eigenbasis(*spectrum)
    Yh = E.hat(algebra(ys, n, spec.mode))
    A = E.Phi * Yh
    Gh = E.hat(algebra(metrics.grad_f_squared(spec, coefficients(E.unhat(A), n, spec.mode)), n, spec.mode))
    B = E.Phi.conj() * Gh
    return coefficients(E.unhat(E.x_gradient(Yh, Gh, A, B)), n, spec.mode), coefficients(E.unhat(B), n, spec.mode)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("mode", [SU, U])
def test_shared_eigenbasis_gradients_match_the_per_sample_route(n, mode):
    """A Pauli geodesic's V0 is one broadcast matrix, and its gradients come from the rotated
    basis V0^+ sigma_s V0.  They match the per-sample products on a copy of the same V stack
    within 1e-11 of their scale, forwards and backwards, on the curve's y and on generic y; the
    copy, a per-sample V, gives the per-sample composition bit for bit."""
    rng = np.random.default_rng(40 + n)
    for kind, t_end in (("generic", 1.0), ("Z", -1.0), ("stabilizer", 1.0), ("stabilizer", -0.5)):
        h0 = _h0(kind, n, mode, rng)
        for spec in SHARED_SPECS:
            spec = replace(spec, mode=mode)
            curve = pauli_geodesic_curve(spec, PauliVector(n, mode, h0), t_end, num_samples=9)
            lam, V = curve.spectrum
            assert V.strides[0] == 0
            for ys in (curve.ys, curve.ys + rng.standard_normal(curve.ys.shape)):
                shared = f_squared_gradients(spec, ys, (lam, V))
                copied = f_squared_gradients(spec, ys, (lam, V.copy()))
                assert all(np.array_equal(a, b) for a, b in zip(copied, _per_sample_gradients(spec, ys, (lam, V.copy()))))
                scale = max(np.abs(g).max() for g in copied)
                assert max(np.abs(a - b).max() for a, b in zip(shared, copied)) <= 1e-11 * scale


def test_a_pauli_geodesic_residual_changes_no_basis_per_sample(monkeypatch):
    """el_residual on a Pauli geodesic calls neither _Eigenbasis.hat nor unhat (its rows go
    through the rotated basis); on a shot, whose V differs at each sample, it calls both."""
    calls = []
    for name in ("hat", "unhat"):
        method = getattr(_Eigenbasis, name)
        monkeypatch.setattr(_Eigenbasis, name, lambda self, Z, m=method, k=name: calls.append(k) or m(self, Z))
    spec = MetricSpec(FQ, penalty=PEN1)
    line = pauli_geodesic_curve(spec, PauliVector.from_terms(2, {"XX": 0.5, "ZZ": -0.4, "YY": 0.3}), 1.0)
    assert el_residual(spec, line) < 1e-8 and calls == []
    shot = shoot_geodesic(spec, np.zeros(15), np.linspace(0.1, 0.5, 15), 0.2, steps=40)
    el_residual(spec, shot)
    assert calls.count("hat") > 0 and calls.count("unhat") > 0


@pytest.mark.parametrize("n, terms", [
    (1, {"Y": 0.8}),
    (2, {"XX": 0.5, "ZZ": -0.4, "YY": 0.3}),
    (3, {"XXX": 0.4, "ZZI": 0.3, "IZZ": -0.5, "YYX": 0.2}),
    (4, {"XXXX": 0.3, "ZZII": 0.2, "IIZZ": -0.4}),
])
def test_pauli_geodesic_curve_unitaries_are_the_exponentials(n, terms):
    """unitaries() and unitary_at of a Pauli geodesic (a shared V0: one GEMM) are exp(-i H0 t)."""
    coeffs = PauliVector.from_terms(n, terms)
    S = stabilizer_span(STABILIZERS[n])
    curve = pauli_geodesic_curve(MetricSpec(FQ, penalty=PEN1), coeffs, -1.0, num_samples=41)
    Us = curve.unitaries()
    for i, t in enumerate(curve.ts):
        expected = pauli_geodesic(S, coeffs, t).matrix
        assert np.max(np.abs(Us[i] - expected)) < 1e-13
        assert np.max(np.abs(curve.unitary_at(i) - expected)) < 1e-13


def test_per_sample_rows_keep_the_per_sample_products():
    """With a V per sample, hat_rows, unhat_rows and apply_rows are algebra, hat, unhat and
    coefficients composed as before, bit for bit: shots and charts are unchanged."""
    shot = _three_chart_shot()
    E = _Eigenbasis(*shot.spectrum)
    assert shot.spectrum[1].strides[0] != 0
    Zh = E.hat_rows(shot.ys, 2, SU)
    assert np.array_equal(Zh, E.hat(algebra(shot.ys, 2, SU)))
    assert np.array_equal(E.unhat_rows(Zh, 2, SU), coefficients(E.unhat(Zh), 2, SU))
    for inverse in (False, True):
        expected = coefficients(E.apply(algebra(shot.ys, 2, SU), inverse), 2, SU)
        assert np.array_equal(E.apply_rows(shot.ys, 2, SU, inverse), expected)


def test_failed_eigensolver_is_no_convergence(monkeypatch):
    """A LinAlgError of any Hermitian eigensolve is NoConvergence: the stacked exponential,
    single exponentials, the change of coordinates and a curve read from JSON."""
    eigh = np.linalg.eigh
    steps = 20

    def failing_eigh(a, *args, **kwargs):
        if len(a) == steps:  # only the reconstruction's stack
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    with pytest.raises(NoConvergence):
        shoot_geodesic(F2_SPEC, np.zeros(3), np.array([0.3, 0.1, 0.0]), 0.2, steps=steps)
    curve = pauli_geodesic_curve(F2_SPEC, PauliVector(1, SU, np.array([0.0, 0.0, 0.4])), 1.0, num_samples=11)

    def broken_eigh(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", broken_eigh)
    with pytest.raises(NoConvergence):  # no stored spectrum: the constructor eigensolves
        Curve.from_json(curve.to_json())
    with pytest.raises(NoConvergence):
        pauli_geodesic(stabilizer_span(["Z"]), PauliVector(1, SU, np.array([0.0, 0.0, 0.4])), 1.0)
    with pytest.raises(NoConvergence):
        change_coords(np.zeros((1, 3)), np.ones((1, 3)), 1, SU)
    with pytest.raises(NoConvergence):  # the first eigensolve of a shot: H0 = E_x0(y0)
        shoot_geodesic(F2_SPEC, np.zeros(3), np.array([0.3, 0.1, 0.0]), 0.2, steps=steps)


@pytest.mark.parametrize("family, penalty", [(F1, None), (FP, PEN1)])
def test_non_smooth_families_cannot_shoot(family, penalty):
    """F1 and Fp have no smooth F^2: NotSmoothMetric at entry, before y0 is even checked."""
    spec = MetricSpec(family=family, penalty=penalty)
    with pytest.raises(NotSmoothMetric):
        shoot_geodesic(spec, np.zeros(3), np.zeros(3), 1.0, steps=10)


def test_tensor_product_curve_re_anchors():
    """A product of two factor geodesics whose phases add up past the margin follows the chart."""
    spec = MetricSpec(FQ, penalty=PenaltyFunction(kind="step", k=3.0, low_weight_cutoff=1))
    steps = 960
    ca = shoot_geodesic(spec, np.zeros(3), np.array([0.9, 0.5, -0.3]), 2.4, steps=steps)
    cb = shoot_geodesic(spec, np.zeros(3), np.array([-0.4, 0.8, 0.6]), 2.4, steps=steps)
    prod = tensor_product_curve(ca, cb, spec)
    assert len(prod.segments) >= 2
    for a, b in prod.segment_bounds():
        assert np.max(np.abs(np.diff(prod.xs[a:b], axis=0))) < 0.1
    for i in range(steps + 1):
        kron = np.kron(ca.unitary_at(i), cb.unitary_at(i))
        assert np.max(np.abs(prod.unitary_at(i) - kron)) < 1e-12
    assert el_residual(spec, prod) < 1e-8


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


def test_constant_hessian_families_make_no_hessian_call(monkeypatch):
    """No shot builds a dense Hessian: Fq's is the constant diag(q), FpDelta's is diag + rank 2."""
    calls = []
    counted = metrics.hessian

    def counting_hessian(spec, y):
        calls.append(spec.family)
        return counted(spec, y)

    monkeypatch.setattr(metrics, "hessian", counting_hessian)
    assert not hasattr(geodesic, "hessian")
    steps = 5
    y0 = np.linspace(0.5, 1.0, 15)
    y0 /= np.linalg.norm(y0)
    curve = shoot_geodesic(MetricSpec(family=FQ, penalty=PEN1), np.zeros(15), y0, 0.05, steps=steps)
    assert calls == []
    assert curve.stats["min_hessian_eig"] == 1.0
    shoot_geodesic(MetricSpec(family=FPDELTA, penalty=PEN1, delta=1e-2), np.zeros(15), y0, 0.01, steps=steps)
    assert calls == []


FIELD_SPECS = {
    "F2": F2_SPEC,
    "Fq-cutoff1": MetricSpec(family=FQ, penalty=PEN1),
    "Fq-cutoff2": MetricSpec(family=FQ, penalty=PEN2),
    "Fq-table": MetricSpec(FQ, penalty=PenaltyFunction(kind="table", values=(1.0, 1.5, 2.5, 4.0, 7.0))),
}


@pytest.mark.parametrize("name", sorted(FIELD_SPECS))
@pytest.mark.parametrize("mode", [SU, U])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_euclidean_field_is_the_bracket_over_q(n, mode, name):
    """bincount(c, g h_a h_b) = bracket(h, q h) / q, to round-off of max(q) |h|^2.

    Strings of equal penalty cancel in the bracket, so the table is empty
    exactly when q is constant off the identity (which commutes with all):
    under F2, and at n = 1 under a step cutoff of 1 or more.
    """
    spec = replace(FIELD_SPECS[name], mode=mode)
    q = metrics.penalty_vector(spec, n)
    c, a, b, g = geodesic._euclidean_field(spec, n)
    off_identity = q[metrics.weights_array(n, mode) > 0]
    assert (len(c) == 0) == (off_identity.min() == off_identity.max())
    if name == "F2" or (n == 1 and name != "Fq-table"):
        assert len(c) == 0
    rng = np.random.default_rng(n)
    for scale in (1e-3, 1.0, 1e3):
        h = scale * rng.standard_normal(len(q))
        field = np.bincount(c, weights=g * h[a] * h[b], minlength=len(q))
        expected = bracket(h, q * h, n, mode) / q
        assert np.max(np.abs(field - expected)) <= 1e-13 * q.max() * (h @ h)


@pytest.mark.parametrize("spec, x0, y0", [
    (F2_SPEC, PauliVector.from_terms(2, {"XI": 0.3, "ZZ": -0.5, "YX": 0.2}),
     PauliVector.from_terms(2, {"IZ": 0.4, "XY": -0.3, "ZI": 0.2})),
    (MetricSpec(family=FQ, penalty=PEN1), PauliVector.from_terms(1, {"X": 0.4, "Z": -0.2}),
     PauliVector.from_terms(1, {"X": 0.1, "Y": 0.5, "Z": 0.3})),
], ids=["F2-n2", "Fq-n1"])
def test_bi_invariant_shot_keeps_h0(monkeypatch, spec, x0, y0):
    """Constant q: the field is zero, every H is H0 bit for bit and U(t) = exp(-i t H0) U0."""
    seen = []
    chart = geodesic._chart_curve

    def recording_chart(spec, ts, hs, Us, x0):
        seen.append(hs)
        return chart(spec, ts, hs, Us, x0)

    monkeypatch.setattr(geodesic, "_chart_curve", recording_chart)
    curve = shoot_geodesic(spec, x0, y0, 1.3, steps=130)
    h0 = change_coords_forward(x0, y0).entries
    assert np.array_equal(seen[0], np.tile(h0, (131, 1)))
    lam, V = np.linalg.eigh(algebra(h0[None], x0.n, spec.mode)[0])
    expected = (V * np.exp(-1.3j * lam)) @ V.conj().T @ unitary_from_coords(x0)
    assert np.max(np.abs(curve.unitary_at(130) - expected)) < 1e-12


def test_bracket_calls_per_shot(monkeypatch):
    """F2/Fq shots call no bracket; a smoothed shot calls it once per right-hand side."""
    calls = []
    counted = geodesic.bracket
    monkeypatch.setattr(geodesic, "bracket", lambda *args: calls.append(1) or counted(*args))
    steps = 7
    y0 = np.linspace(0.5, 1.0, 15)
    y0 /= np.linalg.norm(y0)
    for spec in (F2_SPEC, MetricSpec(family=FQ, penalty=PEN1)):
        shoot_geodesic(spec, np.zeros(15), y0, 0.05, steps=steps)
    assert calls == []
    shoot_geodesic(MetricSpec(family=FPDELTA, penalty=PEN1, delta=1e-2), np.zeros(15), y0, 0.01, steps=steps)
    assert len(calls) == 1 + 4 * steps


@pytest.mark.parametrize("n, steps, per_step", [(3, 600, 11_500), (4, 300, 46_000)])
def test_shot_peak_memory_per_step(n, steps, per_step):
    """tracemalloc peak of an Fq shot: about 11 KB a step at n = 3 and 44 KB at n = 4.

    The (steps + 1)-row arrays of H, k, x, y, U and the chart's eigenvectors
    set it; the Gauss points and the commutators of the rebuild stay below it.
    """
    spec = MetricSpec(family=FQ, penalty=PEN1)
    d = 4**n - 1
    y0 = np.linspace(0.5, 1.0, d)
    y0 /= np.linalg.norm(y0)
    shoot_geodesic(spec, np.zeros(d), y0, 0.01, steps=2)  # fill the module caches first
    tracemalloc.start()
    try:
        shoot_geodesic(spec, np.zeros(d), y0, 0.1, steps=steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= per_step * steps


def test_min_hessian_eig_is_the_smallest_eigenvalue_seen(monkeypatch):
    """The running minimum from the inertia count equals eigvalsh at every evaluation, to 1e-9."""
    points = []
    parts = geodesic.hessian_parts

    def recording_parts(spec, y):
        points.append(np.array(y))
        return parts(spec, y)

    monkeypatch.setattr(geodesic, "hessian_parts", recording_parts)
    spec = MetricSpec(family=FPDELTA, penalty=PEN1, delta=1e-2)
    y0 = np.random.default_rng(12).uniform(0.5, 1.0, 15) * np.array([1.0, -1.0] * 7 + [1.0])
    curve = shoot_geodesic(spec, np.zeros(15), y0 / np.linalg.norm(y0), 0.2, steps=40)
    seen = min(np.linalg.eigvalsh(metrics.hessian(spec, h))[0] for h in points)
    assert len(points) == 1 + 4 * 40
    assert curve.stats["min_hessian_eig"] == pytest.approx(seen, rel=1e-9)


@pytest.mark.parametrize("n, spec, t_end, steps", [
    (2, MetricSpec(family=FQ, penalty=PEN1), 0.4, 40),
    (2, MetricSpec(family=FPDELTA, penalty=PEN1, delta=1e-2), 0.1, 20),
    (3, MetricSpec(family=FQ, penalty=PEN1), 0.04, 10),
    (4, MetricSpec(family=FQ, penalty=PEN1), 0.02, 5),
    (3, MetricSpec(family=FQ, penalty=PEN2), 0.04, 10),
    (2, F2_SPEC, 0.4, 40),
])
def test_shot_matches_the_matrix_commutator_oracle(n, spec, t_end, steps):
    """The quadratic-field table, the structure-constant bracket and the stacked commutators
    of the reconstruction follow the all-matrix shot."""
    d = 4**n - 1
    rng = np.random.default_rng(10 + n)
    y0 = rng.uniform(0.5, 1.0, d) * rng.choice([-1.0, 1.0], d)
    y0 /= np.linalg.norm(y0)
    curve = shoot_geodesic(spec, np.zeros(d), y0, t_end, steps=steps)
    xs, ys, speeds = matrix_shoot(spec, y0, t_end, steps)
    assert curve.segments == [0]
    assert np.max(np.abs(curve.xs - xs)) < 1e-12
    assert np.max(np.abs(curve.ys - ys)) < 1e-12
    assert np.max(np.abs(curve.speeds - speeds)) < 1e-12


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


def test_shooting_cap():
    """The cap is n = 4: an n = 4 shot runs, n = 5 (1023 coefficients) is refused."""
    y0 = np.zeros(255)
    y0[[0, 7, 40, 200]] = [0.5, -0.3, 0.2, 0.1]
    curve = shoot_geodesic(MetricSpec(FPDELTA, penalty=PEN1, delta=5e-4), np.zeros(255), y0, 0.01, steps=2)
    assert curve.n == 4
    with pytest.raises(DimensionLimit):
        shoot_geodesic(F2_SPEC, np.zeros(1023), np.ones(1023), 0.01, steps=2)


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


def test_pauli_geodesic_on_a_subgroup_built_by_hand():
    """A subgroup built by hand had no elements, so its own generator ZI was refused."""
    S = pauli.StabilizerSubgroup(("ZI", "IZ"))
    op = pauli_geodesic(S, PauliVector.from_terms(2, {"ZI": 0.3, "ZZ": 0.2}), 1.0)
    assert np.allclose(op.matrix, np.diag(np.exp(-1j * np.array([0.5, 0.1, -0.5, -0.1]))))


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


def test_embed_indices_offsets():
    v = PauliVector.from_terms(1, {"X": 1.0, "Z": 0.5})
    for offset, terms in ((0, {"XI": 1.0, "ZI": 0.5}), (1, {"IX": 1.0, "IZ": 0.5})):
        out = np.zeros(15)
        out[_embed_indices(1, 2, offset, SU)] = v.entries
        assert PauliVector(2, SU, out).terms() == terms


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
    residual = additive_triple_check(spec_1, spec_1, spec_2)
    assert residual < 1e-10


def test_tensor_product_needs_exactly_the_same_sample_times():
    """Shots of 1.0 and 1.000009 time units differ by 9e-6 at the last sample, which np.allclose
    let through; the product then took the first curve's times."""
    ca = shoot_geodesic(F2_SPEC, np.zeros(3), np.array([0.4, 0.1, 0.0]), 1.0, steps=100)
    cb = shoot_geodesic(F2_SPEC, np.zeros(3), np.array([0.0, 0.2, 0.3]), 1.000009, steps=100)
    with pytest.raises(DimensionMismatch, match="exactly the same times"):
        tensor_product_curve(ca, cb, F2_SPEC)
    tensor_product_curve(ca, ca, F2_SPEC)


def test_tensor_product_past_the_cap_is_refused_before_it_allocates():
    """Two n = 3 factors make n = 6: DimensionLimit before the m x (4^6 - 1) coefficient stack."""
    y0 = PauliVector.from_terms(3, {"XII": 0.3, "IZZ": -0.2}).entries
    ca = shoot_geodesic(MetricSpec(family=F2), np.zeros(63), y0, 0.4, steps=400)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionLimit):
            tensor_product_curve(ca, ca, MetricSpec(family=F2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_euclidean_field_cache_stays_bounded_over_a_penalty_sweep():
    for k in np.linspace(2.0, 3.0, 300):
        geodesic._euclidean_field(MetricSpec(FQ, penalty=PenaltyFunction(k=float(k), low_weight_cutoff=0)), 1)
    assert geodesic._euclidean_field.cache_info().currsize <= 256


def test_additive_triple_ignores_an_unused_penalty():
    # F2 and F1Delta weigh every string 1, whatever penalty the spec carries
    pen = PenaltyFunction(kind="step", k=3.0, low_weight_cutoff=0)
    f2 = MetricSpec(family=F2)
    assert additive_triple_check(f2, f2, MetricSpec(family=F2, penalty=pen)) < 1e-10
    assert additive_triple_check(MetricSpec(family=F2, penalty=pen), f2, f2) < 1e-10
    smoothed = MetricSpec(family=F1DELTA, delta=1e-3)
    with_penalty = MetricSpec(family=F1DELTA, penalty=pen, delta=1e-3)
    # a taxicab norm is not additive in F^2, but the weights agree: no InconsistentPenalties
    assert np.isfinite(additive_triple_check(smoothed, smoothed, with_penalty))


def test_additive_triple_needs_one_basis_mode():
    with pytest.raises(DimensionMismatch):
        additive_triple_check(F2_SPEC, F2_SPEC, MetricSpec(family=F2, mode=U))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_raw_vectors_raise_at_entry(bad):
    spec = MetricSpec(family=FQ, penalty=PEN1)
    x0 = np.zeros(3)
    x0[1] = bad
    y0 = np.array([0.3, 0.0, 0.1])
    with pytest.raises(NonFiniteInput):
        shoot_geodesic(spec, x0, y0, 0.1, steps=10)
    with pytest.raises(NonFiniteInput):
        metric_in_pauli_coords(spec, x0, y0)


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


def _three_chart_shot():
    spec = MetricSpec(FQ, penalty=PEN1)
    curve = shoot_geodesic(spec, np.zeros(15), 2.0 * (np.linspace(-1.0, 1.0, 15) + 0.1), 1.0, steps=200)
    assert len(curve.segments) == 3
    return curve


def test_curve_exponentials_run_no_eigh_and_tensor_products_chart_in_passes(monkeypatch):
    """unitary_at and unitaries() read the spectrum the curve keeps.  tensor_product_curve reads
    its factors' spectra too: its only eighs are W_0's chart and its own chart passes."""
    spec = MetricSpec(FQ, penalty=PenaltyFunction(kind="step", k=3.0, low_weight_cutoff=1))
    ca = shoot_geodesic(spec, np.zeros(3), np.array([0.9, 0.5, -0.3]), 2.4, steps=600)
    cb = shoot_geodesic(spec, np.zeros(3), np.array([-0.4, 0.8, 0.6]), 2.4, steps=600)
    shot = _three_chart_shot()
    eighs, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *r, **k: eighs.append(a.shape) or eigh(a, *r, **k))
    shot.unitary_at(150)
    shot.unitaries()
    assert eighs == []
    passes, solves = _count_chart_passes(monkeypatch)
    prod = tensor_product_curve(ca, cb, spec)
    assert len(prod.segments) >= 2
    assert eighs == [(1, 4, 4)] + [(rows, 4, 4) for rows in passes] and solves == [1] + passes
    assert len(passes) <= -(-600 // geodesic._ROWS) + len(prod.segments)


@pytest.mark.parametrize("t_end", [0.5, 10.0])
def test_chart_passes_are_bounded_by_rows_and_segments(monkeypatch, t_end):
    """No per-sample solve: a shot of m steps over s charts takes at most ceil(m/_ROWS) + s
    chart passes, each one solve, and charts at most m + s _ROWS rows."""
    passes, solves = _count_chart_passes(monkeypatch)
    curve = shoot_geodesic(F2_SPEC, np.zeros(3), np.array([3.0, 0.0, 0.0]), t_end)
    steps, segments = len(curve.ts) - 1, len(curve.segments)
    assert segments == 1 + int(3.0 * t_end / (np.pi - 0.2))
    assert passes == solves
    assert len(passes) <= -(-steps // geodesic._ROWS) + segments
    assert sum(passes) <= steps + segments * geodesic._ROWS


def test_unitaries_match_unitary_at_across_charts():
    """The stacked unitaries() of a 3-chart shot against unitary_at, sample by sample, and
    against exp(-i x.sigma) A by its own eigensolve."""
    curve = _three_chart_shot()
    Us = curve.unitaries()
    assert Us.shape == (len(curve.ts), 4, 4)
    assert max(np.max(np.abs(Us[i] - curve.unitary_at(i))) for i in range(len(Us))) < 1e-14
    for seg, (a, b) in enumerate(curve.segment_bounds()):
        for i in (a, (a + b) // 2, b - 1):
            expected = unitary_from_coords(PauliVector(2, SU, curve.xs[i])) @ curve.anchors[seg]
            assert np.max(np.abs(Us[i] - expected)) < 1e-13
    assert np.array_equal(curve.unitary_at(-1), curve.unitary_at(len(Us) - 1))


def test_u_mode_tensor_product_is_the_kronecker_product():
    """In U mode both factors' identity coefficients land on the product's identity: the
    product's E_x(y) is H_A (x) I + I (x) H_B and its samples are U_A (x) U_B, per np.kron."""
    spec = MetricSpec(FQ, mode=U, penalty=PenaltyFunction(kind="step", k=3.0, low_weight_cutoff=1))
    ca = shoot_geodesic(spec, np.zeros(4), np.array([0.4, 0.9, 0.5, -0.3]), 2.4, steps=480)
    cb = shoot_geodesic(spec, np.zeros(4), np.array([-0.3, -0.4, 0.8, 0.6]), 2.4, steps=480)
    prod = tensor_product_curve(ca, cb, spec)
    assert len(prod.segments) >= 2
    Ws = prod.unitaries()
    Ha, Hb = (algebra(change_coords(c.xs, c.ys, 1, U), 1, U) for c in (ca, cb))
    H = algebra(change_coords(prod.xs, prod.ys, 2, U), 2, U)
    eye = np.eye(2)
    for i in range(0, len(prod.ts), 7):
        Ua, Ub = (unitary_from_coords(PauliVector(1, U, c.xs[i])) @ c.anchors[np.searchsorted(c.segments, i, "right") - 1]
                  for c in (ca, cb))
        assert np.max(np.abs(Ws[i] - np.kron(Ua, Ub))) < 1e-12
        assert np.max(np.abs(H[i] - np.kron(Ha[i], eye) - np.kron(eye, Hb[i]))) < 1e-12


def test_curve_read_from_json_gets_its_spectrum():
    """A curve read from JSON eigensolves its xs once, in the constructor; that spectrum
    rebuilds the xs and gives the same unitaries as the shot's own."""
    curve = _three_chart_shot()
    read = Curve.from_json(curve.to_json())
    lam, V = read.spectrum
    assert np.max(np.abs(_log_rows(lam, V, 2, SU) - read.xs)) < 1e-14
    assert np.max(np.abs(read.unitaries() - curve.unitaries())) < 1e-13


GRADIENT_SPECS = {
    FQ: MetricSpec(FQ, penalty=PEN1),
    F1DELTA: MetricSpec(F1DELTA, delta=0.05),
    FPDELTA: MetricSpec(FPDELTA, penalty=PEN1, delta=0.02),
}


def _assert_gradients_match_fd(spec, x, y):
    n = qubits_of_dimension(len(x), spec.mode)
    gx, gy = f_squared_gradients(spec, y[None, :], _eigh(algebra(x[None, :], n, spec.mode)))
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


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("degenerate", [False, True])
def test_one_eigendecomposition_per_gradient_call(monkeypatch, n, degenerate):
    """One eigh of the X stack and one grad_f_squared per call; dF^2/dy = E_-X(G).

    The y-gradient is the filter conj(Phi) on the eigenbasis of X; it must
    equal apply_bch at -X, which diagonalises -X on its own.
    """
    rng = np.random.default_rng(17 + n)
    xs, ys = 0.4 * rng.standard_normal((2, 6, 4**n - 1))
    if degenerate:  # x on one Pauli string (eigenvalues +-x_0, 2^(n-1) times each) or x = 0
        xs[:, 1:] = 0.0
        xs[-1] = 0.0
    for spec in (MetricSpec(FQ, penalty=PEN1), MetricSpec(FPDELTA, penalty=PEN1, delta=1e-3)):
        eighs, grads = [], []
        eigh, grad = np.linalg.eigh, geodesic.grad_f_squared
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "eigh", lambda *a: eighs.append(1) or eigh(*a))
            m.setattr(geodesic, "grad_f_squared", lambda *a: grads.append(1) or grad(*a))
            _, gy = f_squared_gradients(spec, ys, _eigh(algebra(xs, n, SU)))
        assert (len(eighs), len(grads)) == (1, 1)
        X, Y = algebra(xs, n, SU), algebra(ys, n, SU)
        G = algebra(grad(spec, coefficients(apply_bch(X, Y), n, SU)), n, SU)
        expected = coefficients(apply_bch(-X, G), n, SU)
        assert np.max(np.abs(gy - expected)) <= 1e-12 * max(np.max(np.abs(expected)), 1.0)


def test_adjoint_gradients_at_degenerate_stabilizer_point_n3():
    """x on a stabilizer group at n = 3 (eigenvalues of multiplicity up to 4), y generic."""
    x = PauliVector.from_terms(3, {"ZII": 0.4, "IZI": -0.3, "ZZI": 0.25, "IIZ": 0.1}).entries
    y = np.random.default_rng(31).standard_normal(63)
    for spec in (MetricSpec(FQ, penalty=PEN1), MetricSpec(FPDELTA, penalty=PEN1, delta=1e-3)):
        _assert_gradients_match_fd(spec, x, y)


def test_additive_triple_rejects_u_mode():
    # both factors' identity strings land on the product's identity coefficient
    f2_u = MetricSpec(family=F2, mode=U)
    with pytest.raises(UnsupportedSpec):
        additive_triple_check(f2_u, f2_u, f2_u)
    assert additive_triple_check(F2_SPEC, F2_SPEC, F2_SPEC) < 1e-12


def test_shoot_default_steps_follow_abs_t_end():
    y0 = PauliVector.from_terms(2, {"XI": 0.4, "ZZ": -0.3, "YX": 0.2}).entries
    spec = MetricSpec(family=FQ, penalty=PEN1)
    back = shoot_geodesic(spec, np.zeros(15), y0, -0.1)
    assert back.stats["steps"] == 100
    again = shoot_geodesic(spec, np.zeros(15), y0, -0.1, steps=100)
    assert np.array_equal(back.xs, again.xs) and back.ts[-1] == pytest.approx(-0.1)


@pytest.mark.parametrize("t_end, steps, error", [
    (0.5, 0, ValueError),
    (0.5, -1, ValueError),
    (1e300, 10, NonFiniteInput),
    (np.inf, None, NonFiniteInput),
    (-np.inf, 5, NonFiniteInput),
    (np.nan, None, NonFiniteInput),
    (1e300, None, StepLimitExceeded),
    (1e12, None, StepLimitExceeded),
    (-1e306, None, StepLimitExceeded),
    (0.5, pauli.MAX_BYTES // 640, StepLimitExceeded),  # one step over the budget: (steps + 1) 640 B at n = 1
])
def test_shoot_rejects_bad_time_arguments(t_end, steps, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            shoot_geodesic(F2_SPEC, np.zeros(3), np.array([0.5, 0.0, 0.0]), t_end, steps=steps)


def test_shoot_n_cap_only_lowers_the_cap():
    y0 = np.array([0.5, 0.0, 0.0])
    with pytest.raises(DimensionLimit, match="n_cap=0"):
        shoot_geodesic(F2_SPEC, np.zeros(3), y0, 0.01, steps=2, n_cap=0)
    assert shoot_geodesic(F2_SPEC, np.zeros(3), y0, 0.01, steps=2, n_cap=1).n == 1
    with pytest.raises(DimensionLimit):
        shoot_geodesic(F2_SPEC, np.zeros(1023), np.ones(1023), 0.01, steps=2, n_cap=9)


@pytest.mark.parametrize("num", list(range(2, 13)) + [400, 401])
def test_curve_length_is_scipy_simpson(num):
    """The numpy composite Simpson equals scipy.integrate.simpson (the reference, a test
    dependency only) on even and uneven grids, with Cartwright's last interval when the
    count of intervals is odd and the trapezoid for two points."""
    from scipy.integrate import simpson

    rng = np.random.default_rng(num)
    for ts in (np.linspace(0.0, 1.3, num), np.sort(rng.uniform(0.0, 1.3, num))):
        speeds = 1.0 + rng.random(num)
        curve = Curve(F2_SPEC, ts, np.zeros((num, 3)), np.zeros((num, 3)), speeds)
        assert curve_length(F2_SPEC, curve) == pytest.approx(simpson(speeds, x=ts), rel=1e-12, abs=0.0)


def test_charts_and_lengths_load_no_scipy():
    """A shot, a tensor product, pauli_log and curve_length run on numpy alone."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sugeo.__file__)))
    code = (
        "import sys, numpy as np; from sugeo import geodesic, metrics, coords; "
        "spec = metrics.MetricSpec('Fq', penalty=metrics.PenaltyFunction(k=3.0, low_weight_cutoff=1)); "
        "a = geodesic.shoot_geodesic(spec, np.zeros(3), np.array([0.9, 0.5, -0.3]), 2.4, steps=240); "
        "b = geodesic.shoot_geodesic(spec, np.zeros(3), np.array([-0.4, 0.8, 0.6]), 2.4, steps=240); "
        "p = geodesic.tensor_product_curve(a, b, spec); coords.pauli_log(p.unitary_at(-1)); "
        "geodesic.curve_length(spec, p); "
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
        "sys.exit(f'the run loaded {loaded}' if loaded else 0)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("t_end, num_samples, error", [
    (np.nan, 201, NonFiniteInput), (np.inf, 201, NonFiniteInput), (-np.inf, 201, NonFiniteInput),
    (1.0, 0, ValueError), (1.0, 1, ValueError), (-20.0, 201, OutsidePatch),
])
def test_pauli_geodesic_curve_rejects_bad_time_arguments(t_end, num_samples, error):
    """A NaN t_end gave an all-NaN curve, num_samples 0 an empty one, and a negative t_end
    skipped the patch check (x reached -6 Z, outside the chart); all three raise now."""
    coeffs = PauliVector.from_terms(1, {"Z": 0.3})
    with pytest.raises(error):
        pauli_geodesic_curve(F2_SPEC, coeffs, t_end, num_samples=num_samples)
    assert len(pauli_geodesic_curve(F2_SPEC, coeffs, 1.0, num_samples=2).ts) == 2
