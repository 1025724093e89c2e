import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sugeo import metrics
from sugeo.errors import (
    DeltaTooLarge,
    DimensionMismatch,
    NoConvergence,
    NonFiniteInput,
    NotSmoothMetric,
    UnsupportedSpec,
    ZeroVector,
)
from sugeo.metrics import (
    F1,
    F1DELTA,
    F2,
    FP,
    FPDELTA,
    FQ,
    MetricSpec,
    PenaltyFunction,
    euler_identities_check,
    grad_f_squared,
    hessian,
    implicit_norm,
    metric_equivalence_constants,
    norm,
    norms_batch,
    penalty_vector,
)
from sugeo.pauli import SU, U, PauliVector

PEN1 = PenaltyFunction(kind="step", k=4.0, low_weight_cutoff=1)


def test_plain_norms_hand_values():
    y = np.array([0.3, -0.4, 1.2])
    assert norm(MetricSpec(F1), y) == pytest.approx(1.9)
    assert norm(MetricSpec(F2), y) == pytest.approx(1.3)


def test_weighted_norms_hand_values():
    # XI has weight 1 (penalty 1), ZZ weight 2 (penalty 4)
    v = PauliVector.from_terms(2, {"XI": 1.0, "ZZ": 2.0})
    assert norm(MetricSpec(FP, penalty=PEN1), v) == pytest.approx(1.0 + 4.0 * 2.0)
    assert norm(MetricSpec(FQ, penalty=PEN1), v) == pytest.approx(np.sqrt(1.0 + 4.0 * 4.0))


def test_default_cutoff_keeps_two_local_cheap():
    pen = PenaltyFunction(kind="step", k=10.0)
    assert pen.weight_value(0) == 1.0
    assert pen.weight_value(1) == 1.0
    assert pen.weight_value(2) == 1.0
    assert pen.weight_value(3) == 10.0


def test_identity_weight_is_one_in_u_mode():
    spec = MetricSpec(FP, penalty=PenaltyFunction(kind="step", k=7.0), mode=U)
    p = penalty_vector(spec, 1)
    assert p[0] == 1.0  # the identity string


def test_penalty_validation():
    with pytest.raises(ValueError):
        PenaltyFunction(kind="step", k=0.5)
    with pytest.raises(ValueError):
        PenaltyFunction(kind="table", values=(1.0, 0.1))
    with pytest.raises(ValueError):
        PenaltyFunction(kind="smooth")
    table = PenaltyFunction(kind="table", values=(1.0, 2.0, 8.0))
    assert table.weight_value(2) == 8.0
    with pytest.raises(DimensionMismatch):
        table.weight_value(3)


def test_spec_validation():
    with pytest.raises(UnsupportedSpec):
        MetricSpec("F3")
    with pytest.raises(UnsupportedSpec):
        MetricSpec(FP)  # penalty missing
    with pytest.raises(UnsupportedSpec):
        MetricSpec(F1DELTA)  # delta missing


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_penalty_rejects_non_finite(bad):
    with pytest.raises(NonFiniteInput):
        PenaltyFunction(kind="step", k=bad)
    with pytest.raises(NonFiniteInput):
        PenaltyFunction(kind="table", values=(1.0, bad))


@pytest.mark.parametrize("mode", ["X", "u", ""])
def test_spec_rejects_unknown_mode(mode):
    with pytest.raises(UnsupportedSpec):
        MetricSpec(F1, mode=mode)
    with pytest.raises(UnsupportedSpec):
        MetricSpec.from_json({"family": "F2", "mode": mode})


def test_spec_json_roundtrip():
    spec = MetricSpec(FPDELTA, penalty=PenaltyFunction(kind="step", k=16.0), delta=1e-4, mode=U)
    again = MetricSpec.from_json(spec.to_json())
    assert again == spec
    parsed = MetricSpec.from_json(
        {"family": "FpDelta", "penalty": {"kind": "step", "k": 16.0}, "delta": 1e-4, "mode": "U"}
    )
    assert parsed == spec
    table = MetricSpec(FQ, penalty=PenaltyFunction(kind="table", values=(1.0, 3.0)))
    assert MetricSpec.from_json(table.to_json()) == table


def test_smoothed_sandwich():
    """N_p <= N_delta <= N_p/(1 - P*delta) on random draws."""
    rng = np.random.default_rng(3)
    delta = 1e-3 / 42.0
    sm = MetricSpec(FPDELTA, penalty=PEN1, delta=delta)
    plain = MetricSpec(FP, penalty=PEN1)
    P = float(np.sum(penalty_vector(sm, 2)))
    for _ in range(100):
        y = rng.standard_normal(15)
        lo = norm(plain, y)
        v = norm(sm, y)
        assert lo <= v <= lo / (1.0 - P * delta) * (1 + 1e-12)


def test_delta_too_large():
    sm = MetricSpec(F1DELTA, delta=0.5)  # P = 3 at n=1, P*delta = 1.5
    with pytest.raises(DeltaTooLarge):
        norm(sm, np.array([1.0, 0.0, 0.0]))


def test_zero_vector_norms():
    z = np.zeros(3)
    assert norm(MetricSpec(F1), z) == 0.0
    assert norm(MetricSpec(F1DELTA, delta=1e-3), z) == 0.0


def test_norms_batch_matches_scalar():
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((40, 15))
    specs = [
        MetricSpec(F1),
        MetricSpec(F2),
        MetricSpec(FP, penalty=PEN1),
        MetricSpec(FQ, penalty=PEN1),
        MetricSpec(F1DELTA, delta=1e-4 / 15),
        MetricSpec(FPDELTA, penalty=PEN1, delta=1e-4 / 42),
    ]
    for spec in specs:
        batch = norms_batch(spec, rows)
        scalar = np.array([norm(spec, r) for r in rows])
        assert np.array_equal(batch, scalar)  # a vector is a batch of one


@pytest.mark.parametrize("spec", [
    MetricSpec(F1),
    MetricSpec(F2),
    MetricSpec(FP, penalty=PEN1),
    MetricSpec(FQ, penalty=PEN1),
    MetricSpec(F1DELTA, delta=1e-3),
    MetricSpec(FPDELTA, penalty=PEN1, delta=1e-3),
], ids=lambda spec: spec.family)
def test_non_finite_rows_rejected(spec):
    with pytest.raises(NonFiniteInput):
        norms_batch(spec, [[np.nan, 1.0, 1.0], [1.0, 1.0, 1.0]])
    with pytest.raises(NonFiniteInput):
        norm(spec, np.array([1.0, np.inf, 0.0]))


@pytest.mark.parametrize("spec", [
    MetricSpec(F1),
    MetricSpec(F2),
    MetricSpec(F1DELTA, delta=1e-3),
], ids=lambda spec: spec.family)
def test_overflowing_norm_rejected(spec):
    y = np.full(3, 1.5e308)  # every norm here is >= sqrt(3) 1.5e308, past the float range
    with pytest.raises(NonFiniteInput):
        norm(spec, y)
    with pytest.raises(NonFiniteInput):
        norms_batch(spec, [y, [1.0, 1.0, 1.0]])


@pytest.mark.parametrize("spec", [
    MetricSpec(F1), MetricSpec(F2), MetricSpec(FP, penalty=PEN1), MetricSpec(FQ, penalty=PEN1),
], ids=lambda spec: spec.family)
@pytest.mark.parametrize("c", [1e-200, 1e-320, 1e200, 1e308])
def test_plain_norms_at_extreme_scales(spec, c):
    """A representable norm is returned even when y**2 under- or overflows."""
    y = (np.linspace(-1.0, 1.0, 15) + 0.05) / 16.0  # every norm of y is below 1.5
    expected = c * norm(spec, y)
    rel = 1e-12 if c > 1e-300 else 1e-3  # 1e-320 y is subnormal
    assert norm(spec, c * y) == pytest.approx(expected, rel=rel)
    batch = norms_batch(spec, [c * y, y, np.zeros(15)])
    assert batch == pytest.approx([expected, norm(spec, y), 0.0], rel=rel)


def test_grad_f_squared_batch_rows_equal_vector_calls():
    rng = np.random.default_rng(21)
    rows = rng.standard_normal((30, 15))
    for spec in (MetricSpec(FQ, penalty=PEN1), MetricSpec(F1DELTA, delta=0.05),
                 MetricSpec(FPDELTA, penalty=PEN1, delta=1e-2)):
        for derivative, shape in ((grad_f_squared, rows.shape), (hessian, (30, 15, 15))):
            batch = derivative(spec, rows)
            assert batch.shape == shape
            for r, g in zip(rows, batch):
                assert np.array_equal(g, derivative(spec, r))
    for derivative in (grad_f_squared, hessian):
        with pytest.raises(ZeroVector):
            derivative(MetricSpec(F1DELTA, delta=0.05), np.vstack([rows[:2], np.zeros(15)]))


def test_smoothed_derivatives_at_huge_finite_vectors():
    spec = MetricSpec(FPDELTA, penalty=PEN1, delta=1e-2)
    y = np.linspace(-1.0, 1.0, 15) + 0.05
    H = hessian(spec, y)
    assert np.allclose(hessian(spec, 1e300 * y), H, rtol=1e-12, atol=0.0)
    assert np.allclose(grad_f_squared(spec, 1e300 * y), 1e300 * grad_f_squared(spec, y), rtol=1e-12)


def test_no_convergence_is_typed(monkeypatch):
    spec = MetricSpec(FPDELTA, penalty=PEN1, delta=1e-2)
    y = np.linspace(0.5, 1.0, 15)
    monkeypatch.setattr(metrics, "_NEWTON_CAP", 1)
    with pytest.raises(NoConvergence):
        norm(spec, y)
    with pytest.raises(NoConvergence):
        norms_batch(spec, np.stack([y, 2.0 * y]))


@pytest.mark.parametrize("c", [1e150, 1e-150])
def test_smoothed_homogeneity_at_extreme_scales(c):
    spec = MetricSpec(FPDELTA, penalty=PEN1, delta=1e-2)
    y = np.random.default_rng(8).standard_normal(15)
    assert norm(spec, c * y) == pytest.approx(c * norm(spec, y), rel=1e-12)


SMOOTHED_SPECS = [
    (F1DELTA, None),
    (FPDELTA, PEN1),
    (FPDELTA, PenaltyFunction(kind="step", k=16.0, low_weight_cutoff=0)),
]
coefficients = st.lists(
    st.floats(-10.0, 10.0, allow_subnormal=False), min_size=16, max_size=16
)


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    mode=st.sampled_from([SU, U]),
    case=st.sampled_from(SMOOTHED_SPECS),
    frac=st.floats(1e-6, 0.9),
    raw_x=coefficients,
    raw_y=coefficients,
    c=st.floats(1e-3, 1e3),
)
def test_smoothed_norm_properties(n, mode, case, frac, raw_x, raw_y, c):
    """One solver: batch rows equal scalar calls; sandwich, homogeneity, triangle."""
    family, penalty = case
    plain = MetricSpec(F1 if family == F1DELTA else FP, penalty=penalty, mode=mode)
    p = penalty_vector(plain, n)
    d, P = len(p), float(np.sum(p))
    delta = frac / P
    spec = MetricSpec(family, penalty=penalty, delta=delta, mode=mode)
    x, y = np.array(raw_x[:d]), np.array(raw_y[:d])
    rows = np.stack([x, y, x + y, c * y, np.zeros(d)])
    batch = norms_batch(spec, rows)
    assert [norm(spec, r) for r in rows] == list(batch)
    nx, ny, nxy, ncy, nzero = batch
    assert nzero == 0.0
    for v, row in ((nx, x), (ny, y)):
        lo = norm(plain, row)
        assert lo <= v <= lo / (1.0 - P * delta) * (1 + 1e-12)
    assert ncy == pytest.approx(c * ny, rel=1e-10, abs=0.0)
    assert nxy <= (nx + ny) * (1 + 1e-10)


@settings(max_examples=200, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    family=st.sampled_from([F2, FQ, F1DELTA, FPDELTA]),
    frac=st.floats(1e-6, 0.9),
    raw=coefficients,
)
def test_hessian_applied_to_y_is_half_the_gradient(n, family, frac, raw):
    """Euler's theorem for the 2-homogeneous F^2/2, which the shooting relies on."""
    penalty = PEN1 if family in (FQ, FPDELTA) else None
    p = penalty_vector(MetricSpec(FQ if penalty else F2, penalty=penalty), n)
    delta = frac / float(np.sum(p)) if family in (F1DELTA, FPDELTA) else None
    spec = MetricSpec(family, penalty=penalty, delta=delta)
    y = np.array(raw[: len(p)])
    assume(np.any(y))
    half_grad = grad_f_squared(spec, y) / 2.0
    scale = np.abs(half_grad).max()
    assert np.allclose(hessian(spec, y) @ y, half_grad, rtol=1e-9, atol=1e-9 * scale)


def test_implicit_norm_only_for_smoothed():
    with pytest.raises(UnsupportedSpec):
        implicit_norm(MetricSpec(F1), np.ones(3))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    specs = [
        MetricSpec(F2),
        MetricSpec(FQ, penalty=PEN1),
        MetricSpec(F1DELTA, delta=1e-4 / 15),
        MetricSpec(FPDELTA, penalty=PEN1, delta=1e-4 / 42),
    ]
    for spec in specs:
        y = rng.standard_normal(15)
        y += 0.3 * np.sign(y)
        g = grad_f_squared(spec, y)
        h = 1e-5
        for j in (0, 7, 14):
            e = np.zeros(15)
            e[j] = h
            fd = (norm(spec, y + e) ** 2 - norm(spec, y - e) ** 2) / (2 * h)
            assert g[j] == pytest.approx(fd, abs=2e-6)


def test_nonsmooth_families_refuse_derivatives():
    y = np.ones(3)
    with pytest.raises(NotSmoothMetric):
        grad_f_squared(MetricSpec(F1), y)
    with pytest.raises(NotSmoothMetric):
        hessian(MetricSpec(FP, penalty=PEN1), y)


def test_hessian_quadratic_families():
    y = np.array([0.5, -1.0, 2.0])
    assert np.allclose(hessian(MetricSpec(F2), y), np.eye(3))
    spec = MetricSpec(FQ, penalty=PenaltyFunction(kind="step", k=9.0, low_weight_cutoff=0))
    assert np.allclose(hessian(spec, y), 9.0 * np.eye(3))


def test_hessian_zero_vector():
    with pytest.raises(ZeroVector):
        hessian(MetricSpec(F2), np.zeros(3))
    with pytest.raises(ZeroVector):
        grad_f_squared(MetricSpec(F1DELTA, delta=1e-3), np.zeros(3))


def test_smoothed_hessian_positive_definite():
    rng = np.random.default_rng(13)
    sm = MetricSpec(FPDELTA, penalty=PEN1, delta=1e-4 / 42)
    for _ in range(20):
        y = rng.standard_normal(15)
        y += 0.2 * np.sign(y)
        eig = np.linalg.eigvalsh(hessian(sm, y))
        assert eig.min() > 0.0


def test_euler_identities():
    rng = np.random.default_rng(17)
    for spec in (MetricSpec(F2), MetricSpec(F1DELTA, delta=1e-4 / 15)):
        y = rng.standard_normal(15)
        y += 0.3 * np.sign(y)
        y /= np.linalg.norm(y)
        r1, r2, r3 = euler_identities_check(spec, y)
        assert r1 < 1e-5 and r2 < 1e-5 and r3 < 1e-5


def test_equivalence_constants():
    rng = np.random.default_rng(19)
    samples = rng.standard_normal((50, 15))
    lo, hi = metric_equivalence_constants(MetricSpec(F2), MetricSpec(F2), samples)
    assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)
    # F2 <= F1 <= sqrt(d) F2
    lo, hi = metric_equivalence_constants(MetricSpec(F1), MetricSpec(F2), samples)
    assert 1.0 / np.sqrt(15) - 1e-12 <= lo <= hi <= 1.0 + 1e-12


def test_pauli_vector_mode_mismatch():
    spec = MetricSpec(F1, mode=U)
    v = PauliVector.from_terms(1, {"X": 1.0}, SU)
    with pytest.raises(DimensionMismatch):
        norm(spec, v)
