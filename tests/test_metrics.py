import json

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
    HessianParts,
    MetricSpec,
    PenaltyFunction,
    euler_identities_check,
    grad_f_squared,
    hessian,
    hessian_parts,
    implicit_norm,
    norm,
    norms_batch,
    penalty_vector,
)
from sugeo.pauli import SU, U, PauliVector, basis_dimension, qubits_of_dimension

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


@pytest.mark.parametrize("family", [F1DELTA, F2])
def test_spec_rejects_non_finite_delta(family):
    """delta = NaN was accepted, and norm then reported an overflow."""
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NonFiniteInput):
            MetricSpec(family, delta=bad)


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
    for penalty in (
        PenaltyFunction(kind="step", k=4.0, low_weight_cutoff=0),
        PenaltyFunction(kind="step", k=2.5, low_weight_cutoff=1),
        PenaltyFunction(kind="table", values=(1.0, 2.0, 7.5)),
    ):
        for family in (FP, FQ, FPDELTA):
            spec = MetricSpec(family, penalty=penalty, delta=1e-3 if family == FPDELTA else None)
            obj = json.loads(json.dumps(spec.to_json()))
            assert MetricSpec.from_json(obj) == spec
            if penalty.kind == "step":
                assert obj["penalty"]["low_weight_cutoff"] == penalty.low_weight_cutoff


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


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from([F1DELTA, FPDELTA]),
    n=st.integers(1, 3),
    mode=st.sampled_from([SU, U]),
    log_delta=st.floats(-6.0, np.log10(3e-2)),
    seed=st.integers(0, 2**32 - 1),
    exponents=st.lists(st.one_of(st.none(), st.floats(-300.0, 300.0)), min_size=1, max_size=8),
)
def test_smoothed_rows_equal_their_batch_of_one(family, n, mode, log_delta, seed, exponents):
    """Bit for bit, with zero rows (exponent None) and row scales 10^exponent from 1e-300 to 1e300."""
    pen = PEN1 if family == FPDELTA else None
    P = float(np.sum(penalty_vector(MetricSpec(family, penalty=pen, delta=1.0, mode=mode), n)))
    spec = MetricSpec(family, penalty=pen, delta=min(10.0**log_delta, 0.999 / P), mode=mode)
    rows = np.random.default_rng(seed).standard_normal((len(exponents), basis_dimension(n, mode)))
    for row, e in zip(rows, exponents):
        row *= 0.0 if e is None else 10.0**e
    assert np.array_equal(norms_batch(spec, rows), [norm(spec, row) for row in rows])


def test_spec_keyed_caches_stay_bounded_over_a_delta_sweep():
    y = np.linspace(0.1, 1.0, 15)
    for delta in np.linspace(1e-6, 1e-3, 1000):
        norm(MetricSpec(F1DELTA, delta=float(delta)), y)
    assert penalty_vector.cache_info().currsize <= 256
    assert metrics._implicit_plan.cache_info().currsize <= 256


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


@pytest.mark.parametrize("spec, c", [
    (MetricSpec(F2), 1.5e308),
    (MetricSpec(FQ, penalty=PEN1), 1.5e308),
    (MetricSpec(F1DELTA, delta=1e-3), 5e307),  # N is finite here, 2 N grad N is not
], ids=lambda v: getattr(v, "family", None))
def test_overflowing_gradient_rejected(spec, c):
    """A gradient past the float range is a typed error, for a vector and for a stack."""
    y = np.full(3, c)
    with pytest.raises(NonFiniteInput):
        grad_f_squared(spec, y)
    with pytest.raises(NonFiniteInput):
        grad_f_squared(spec, np.vstack([np.ones(3), y]))
    assert np.all(np.isfinite(grad_f_squared(spec, y / 4)))


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


_EPS = np.finfo(float).eps


def _check_hessian_parts(spec, y, r):
    """hessian_parts against the dense hessian: solve, count_below and min_eig.

    Tolerances are 1e-9 relative plus the dense route's own error: eigvalsh
    is accurate to O(eps ||H||) in each eigenvalue, np.linalg.solve to
    O(eps cond(H)).
    """
    H = hessian(spec, y)
    G = hessian_parts(spec, y)
    ev = np.linalg.eigvalsh(H)
    floor = 64 * _EPS * ev[-1]
    assert abs(G.min_eig() - ev[0]) <= 1e-9 * ev[0] + floor
    # below a bound under lambda_min the bound comes back as is; above it, lambda_min
    assert G.min_eig(0.5 * ev[0]) == 0.5 * ev[0]
    assert abs(G.min_eig(1.5 * ev[0]) - ev[0]) <= 1e-9 * ev[0] + floor
    # the inertia count between and around the eigenvalues, and at every pole lam_j
    points = np.concatenate([0.5 * (ev[1:] + ev[:-1]), [0.5 * ev[0], 2.0 * ev[-1]], G.lam])
    for x in points:
        if np.min(np.abs(ev - x)) > 1e-9 * x + floor:
            assert G.count_below(x) == np.count_nonzero(ev < x)
    k = np.linalg.solve(H, r)
    err = np.max(np.abs(G.solve(r) - k)) / np.max(np.abs(k))
    assert err <= 1e-9 + 64 * _EPS * ev[-1] / ev[0]
    return G, ev


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 4),
    family=st.sampled_from([F1DELTA, FPDELTA]),
    frac=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.sampled_from([0.0, 0.3]),
    repeats=st.integers(0, 4),
)
def test_hessian_parts_match_the_dense_hessian(n, family, frac, seed, zeros, repeats):
    """Woodbury solve, inertia count and smallest eigenvalue against solve and eigvalsh.

    Zero coefficients give poles of M(x) whose row of U vanishes (exact
    eigenvalues lam_j); coefficients of one magnitude give repeated lam_j.
    """
    penalty = PEN1 if family == FPDELTA else None
    p = penalty_vector(MetricSpec(FQ if penalty else F2, penalty=penalty), n)
    spec = MetricSpec(family, penalty=penalty, delta=frac / float(np.sum(p)))
    rng = np.random.default_rng(seed)
    y = rng.standard_normal(len(p))
    y[rng.random(len(p)) < zeros] = 0.0
    repeats = min(repeats, len(p))
    if repeats > 1:
        same = rng.choice(len(p), size=repeats, replace=False)
        y[same] = abs(y[same[0]]) * rng.choice([-1.0, 1.0], size=repeats)
    assume(np.any(y))
    _check_hessian_parts(spec, y, rng.standard_normal(len(p)))


def test_hessian_parts_eigenvalue_below_every_pole():
    """A point whose smallest eigenvalue lies below min lam, the case interlacing allows once.

    n = 1 in U mode, p = 1 on I and 4 on X, Y, Z, P delta = 0.9, and
    y = (0.5, 1, 0, 0): the zero Y and Z coefficients are exact
    eigenvalues lam_Y = lam_Z, and lambda_min is 1.2% below lam_I.
    """
    penalty = PenaltyFunction(kind="step", k=4.0, low_weight_cutoff=0)
    spec = MetricSpec(FPDELTA, penalty=penalty, delta=0.9 / 13, mode=U)
    G, ev = _check_hessian_parts(spec, np.array([0.5, 1.0, 0.0, 0.0]), np.array([0.3, -1.0, 2.0, 0.5]))
    assert ev[0] < 0.99 * G.lam.min()
    lam = np.sort(G.lam)
    assert lam[-1] == lam[-2] and ev[-1] == pytest.approx(lam[-1], rel=1e-12)


def test_hessian_parts_smallest_eigenvalue_between_adjacent_poles():
    """lam_(1) and lam_(2) one float apart, the smallest eigenvalue of H at them: min_eig's
    bracket between the two poles holds no float inside, so it returns its end instead of
    dividing by zero there (a generic F1Delta point at n = 2 that a shot reached)."""
    y = np.array([0.0] * 8 + [0.5, 0.953125, 0.5078125, 0.9999999999999999, 0.0, 1.0, 0.5])
    G, ev = _check_hessian_parts(MetricSpec(F1DELTA, delta=0.05), y / np.linalg.norm(y), np.ones(15))
    lam = np.sort(G.lam)
    assert lam[0] < lam[1] == np.nextafter(lam[0], np.inf)
    assert G.min_eig() in (lam[0], lam[1])


_ROWS_A = [[0.3, -1.2], [1.1, 0.4], [-0.7, 0.9], [0.5, 0.5], [-1.0, 0.2]]


@pytest.mark.parametrize("lam, U, Cinv, bound", [
    # two tied lam_j with independent rows of U: a rank-2 pole, inside and at lam_(1)
    ([1.0, 2.0, 2.0, 3.0, 4.0], _ROWS_A, None, np.inf),
    ([1.0, 1.0, 2.0, 3.0, 4.0], _ROWS_A, None, np.inf),
    # two tied lam_j whose rows vanish: a rank-0 pole (exact eigenvalues), inside and at lam_(1)
    ([1.0, 2.0, 2.0, 3.0, 4.0], [_ROWS_A[0], [0, 0], [0, 0]] + _ROWS_A[3:], None, np.inf),
    ([1.0, 1.0, 2.0, 3.0, 4.0], [[0, 0], [0, 0]] + _ROWS_A[2:], None, np.inf),
    # the smallest eigenvalue is the rank-0 pole 4, above lam_(1): the bracket collapses onto it
    ([3.0, 4.0, 5.0], [[2, -2], [0, 0], [1, -1]], None, np.inf),
    # U C U^T = 0, so lam_(1) = 3 is an eigenvalue: a rank-1 pole whose limit e.B e is 0
    ([3.0, 4.0, 5.0], [[1, 1], [0, 0], [1, 1]], None, np.inf),
    # M(1) = 2 I exactly, so Newton starts where the eigenvector of M is not unique
    ([2.0, 3.0, 5.0], [[1, 0], [0, 2], [0, 2]], [[1, 0], [0, -1]], 1.0),
])
def test_hessian_parts_at_tied_and_vanishing_poles(lam, U, Cinv, bound):
    """count_below and min_eig of hand-built parts against eigvalsh of the dense H.

    C^-1 defaults to hessian_parts' form [[0, -D^2], [-D^2, -(S2 + D) D]] at D = S2 = 1; it
    has one positive and one negative eigenvalue, as the inertia count needs.
    """
    Cinv = np.array(Cinv if Cinv is not None else [[0.0, -1.0], [-1.0, -2.0]], dtype=float)
    G = HessianParts(np.ones(1), np.ones(1), np.array(lam, dtype=float), np.array(U, dtype=float), Cinv)
    ev = np.linalg.eigvalsh(np.diag(G.lam) + G.U @ np.linalg.inv(Cinv) @ G.U.T)
    floor = 64 * _EPS * np.abs(ev).max()
    assert abs(G.min_eig(bound) - ev[0]) <= 1e-12 * abs(ev[0]) + floor
    assert abs(G.min_eig(ev[0] + 0.25) - ev[0]) <= 1e-12 * abs(ev[0]) + floor
    assert G.min_eig(ev[0] - 0.25) == ev[0] - 0.25
    for x in G.lam:  # at a pole, an eigenvalue of H at x is not below it
        assert G.count_below(x) == np.count_nonzero(ev < x - floor)
    for x in np.concatenate([0.5 * (ev[1:] + ev[:-1]), [ev[0] - 1.0, ev[-1] + 1.0]]):
        if np.min(np.abs(ev - x)) > floor:  # between distinct eigenvalues
            assert G.count_below(x) == np.count_nonzero(ev < x)


def test_hessian_parts_stack_and_momentum():
    """A stack gives each row's parts; N gamma / D is the momentum grad(F^2)/2 = H y."""
    rows = np.random.default_rng(23).standard_normal((5, 15))
    spec = MetricSpec(FPDELTA, penalty=PEN1, delta=1e-2)
    G = hessian_parts(spec, rows)
    assert G.lam.shape == (5, 15) and G.U.shape == (5, 15, 2) and G.Cinv.shape == (5, 2, 2)
    for i, y in enumerate(rows):
        one = hessian_parts(spec, y)
        for a, b in zip(one, G):
            assert np.array_equal(a, b[i])
        momentum = one.N * one.U[:, 0] / one.D
        assert np.allclose(momentum, grad_f_squared(spec, y) / 2.0, rtol=1e-12, atol=0.0)
    with pytest.raises(UnsupportedSpec):
        hessian_parts(MetricSpec(FQ, penalty=PEN1), rows[0])


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


def metric_equivalence_constants(spec_a, spec_b, samples):
    """Empirical (min, max) of norm_b/norm_a over the rows of `samples`."""
    ratios = norms_batch(spec_b, samples) / norms_batch(spec_a, samples)
    return float(np.min(ratios)), float(np.max(ratios))


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


def _dual_norm(spec, p):
    """N*(p) = max p.y over the unit ball, without the library's norm solver.

    F2/Fq: sqrt(sum p^2/q).  Smoothed families: the ball is
    sum w sqrt(delta^2 + y^2) <= 1, and its Lagrange conditions give
    y_j = delta t_j / sqrt(1 - t_j^2) with t_j = p_j / (lam w_j); the
    constraint decreases in lam > max |p_j|/w_j, so bisect on it.
    """
    w = penalty_vector(spec, qubits_of_dimension(len(p)))
    if spec.family in (F2, FQ):
        return float(np.sqrt(np.sum(p**2 / w)))

    def y_of(lam):
        t = p / (lam * w)
        return spec.delta * t / np.sqrt(1.0 - t**2)

    def excess(lam):
        return np.sum(w * np.sqrt(spec.delta**2 + y_of(lam) ** 2)) - 1.0

    lo = np.max(np.abs(p) / w)
    hi = 2.0 * lo
    while excess(hi) > 0.0:
        hi *= 2.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if excess(mid) > 0.0 else (lo, mid)
    return float(p @ y_of(hi))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize(
    "spec",
    [
        MetricSpec(family=F2),
        MetricSpec(family=FQ, penalty=PEN1),
        MetricSpec(family=F1DELTA, delta=1e-2),
        MetricSpec(family=FPDELTA, penalty=PEN1, delta=1e-2),
    ],
    ids=lambda s: s.family,
)
def test_legendre_duality(spec, n):
    """p = grad(F^2)/2 at h has dual norm N*(p) = N(h), N* computed independently."""
    rng = np.random.default_rng(50 + n)
    hs = rng.standard_normal((25, 4**n - 1))
    hs[::2, ::2] *= 1e-3  # coefficients near the smoothed corners
    ps = grad_f_squared(spec, hs) / 2.0
    for p, N in zip(ps, norms_batch(spec, hs)):
        assert _dual_norm(spec, p) == pytest.approx(N, rel=1e-9)
