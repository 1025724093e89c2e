import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import hadamard

import sugeo
from sugeo.errors import (
    DimensionLimit,
    DimensionMismatch,
    NonFiniteInput,
    NonTracelessInSUMode,
    UnsupportedSpec,
)
from sugeo.lattice import (
    CvpResult,
    DiagonalUnitary,
    _coset_table,
    _diag_weights,
    _walsh,
    coverage_bound,
    cvp_minimal_pauli_geodesic,
    diagonal_to_pauli,
    lattice_log_det,
    monte_carlo_coverage,
    reduce_phases,
    unit_ball_volume,
)
from sugeo.metrics import (
    F1,
    F1DELTA,
    F2,
    FAMILIES,
    FP,
    FPDELTA,
    FQ,
    NEEDS_PENALTY,
    SMOOTHED,
    MetricSpec,
    PenaltyFunction,
    norms_batch,
)
from sugeo.pauli import SU, U, string_index, to_matrix

from oracles import flat_coverage, flat_cvp, geodesic_hamiltonian

F1_U = MetricSpec(family=F1, mode=U)
F2_U = MetricSpec(family=F2, mode=U)


def test_reduce_phases_range():
    theta = np.array([3 * np.pi, -np.pi, 0.5, 2 * np.pi, -0.25])
    out = reduce_phases(theta)
    assert np.allclose(out, [np.pi, np.pi, 0.5, 0.0, -0.25])
    assert np.all(out > -np.pi)
    assert np.all(out <= np.pi)


def test_diagonal_to_pauli_reconstructs():
    rng = np.random.default_rng(7)
    h = rng.standard_normal(4)
    v = diagonal_to_pauli(h)
    assert v.mode == U
    assert np.max(np.abs(to_matrix(v) - np.diag(h))) < 1e-12


@pytest.mark.parametrize("n", range(5, 12))
def test_diagonal_to_pauli_checks_n_before_the_walsh_matrix(n):
    """Past the cap, nothing of size 4^n is built, and the Walsh cache does not grow."""
    theta = np.zeros(2**n)
    cached = _walsh.cache_info().currsize
    tracemalloc.start()
    try:
        with pytest.raises(DimensionLimit):
            diagonal_to_pauli(theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert _walsh.cache_info().currsize == cached


def test_cvp_identity():
    res = cvp_minimal_pauli_geodesic(F1_U, DiagonalUnitary(1, np.zeros(2)))
    assert res.value == pytest.approx(0.0, abs=1e-14)
    assert res.certified
    assert np.all(res.minimizer == 0)


def test_cvp_single_qubit_phase_flip():
    res = cvp_minimal_pauli_geodesic(F1_U, np.array([0.0, np.pi]))
    assert res.value == pytest.approx(np.pi, abs=1e-12)
    assert res.certified
    d = np.diag(geodesic_hamiltonian(res))
    assert np.max(np.abs(np.exp(-1j * d) - np.exp(-1j * np.array([0.0, np.pi])))) < 1e-12


def test_cvp_su_mode():
    theta = np.array([np.pi, np.pi])
    spec = MetricSpec(family=F2, mode=SU)
    res = cvp_minimal_pauli_geodesic(spec, theta)
    assert res.value == pytest.approx(np.pi, abs=1e-12)
    d = np.diag(geodesic_hamiltonian(res))
    assert np.sum(d) == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(np.exp(-1j * d) - np.exp(-1j * theta))) < 1e-12


def test_cvp_su_mode_rejects_bad_trace():
    spec = MetricSpec(family=F2, mode=SU)
    with pytest.raises(NonTracelessInSUMode):
        cvp_minimal_pauli_geodesic(spec, np.array([0.0, np.pi]))


def test_cvp_matches_brute_force():
    rng = np.random.default_rng(9)
    Wt = hadamard(4).astype(float)
    grid = np.array(np.meshgrid(*([range(-4, 5)] * 4), indexing="ij")).reshape(4, -1).T
    for _ in range(5):
        theta = rng.uniform(-np.pi, np.pi, 4)
        res = cvp_minimal_pauli_geodesic(F1_U, theta)
        v = reduce_phases(theta)[None, :] - 2 * np.pi * grid
        brute = np.min(np.sum(np.abs(v @ Wt / 4), axis=1))
        assert res.value == pytest.approx(brute, abs=1e-10)
        assert res.certified


def test_cvp_dimension_cap():
    assert cvp_minimal_pauli_geodesic(F1_U, np.zeros(8)).value == 0.0
    with pytest.raises(DimensionLimit, match="n <= 3"):
        cvp_minimal_pauli_geodesic(F1_U, np.zeros(16))


@pytest.mark.parametrize("theta, error", [
    ([], DimensionMismatch),
    (0.5, DimensionMismatch),
    ([0.1, 0.2, 0.3], DimensionMismatch),
    ([[0.1, 0.2], [0.3, 0.4]], DimensionMismatch),
    ([0.1], DimensionLimit),  # n = 0
])
def test_malformed_phase_vectors_raise_typed_errors(theta, error):
    with pytest.raises(error):
        cvp_minimal_pauli_geodesic(F1_U, theta)
    with pytest.raises(error):
        diagonal_to_pauli(theta)


def test_cvp_certifies_table_penalty():
    pen = PenaltyFunction(kind="table", values=(1.0, 200.0))
    spec = MetricSpec(family=FQ, penalty=pen, mode=U)
    theta = np.array([0.0, np.pi])
    res = cvp_minimal_pauli_geodesic(spec, theta)
    assert res.certified
    assert res.window_used == int(np.max(np.abs(res.minimizer)))
    assert res.value == pytest.approx(0.5 * np.pi * math.sqrt(201.0), rel=1e-12)


@pytest.mark.parametrize("k", [4.0, 16.0, 100.0])
def test_cvp_and_oracle_n3_closed_form(k):
    n = 3
    spec = MetricSpec(family=FP, penalty=PenaltyFunction(kind="step", k=k), mode=U)
    theta = np.zeros(2**n)
    theta[-1] = np.pi
    res = cvp_minimal_pauli_geodesic(spec, theta)
    assert res.certified
    assert res.stats == {"cosets": 4096, "rows": 512}  # 16 classes x 2 halves x 16 half-rows
    expected = np.pi * (k - (2 + n + n * n) / 2 ** (n + 1) * (k - 1.0))
    assert res.value == pytest.approx(expected, rel=1e-12)


def _diag_value(kind, w, h, m):
    """F(diag(h - 2 pi m)) for each row of m, straight from the definition."""
    d = len(h)
    y = (h[None, :] - 2 * np.pi * m) @ hadamard(d).T / d
    if kind == "taxicab":
        return np.abs(y) @ w
    return np.sqrt(y**2 @ w)


def _cvp_problem(spec, theta):
    """(kind, weights, reduced h, su_sum) of a solve, from the definitions."""
    d = len(theta)
    kind = "taxicab" if spec.family in (F1, F1DELTA, FP, FPDELTA) else "quadratic"
    pen = spec.penalty
    w = np.array([1.0 if pen is None else pen.weight_value(bin(s).count("1")) for s in range(d)])
    h = reduce_phases(theta)
    su_sum = None
    if spec.mode == SU:
        w[0] = 0.0
        su_sum = int(round(np.sum(h) / (2 * np.pi)))
    return kind, w, h, su_sum


CVP_CASES = [
    (F1, None),
    (FP, 1.5),
    (FP, 4.0),
    (F2, None),
    (FQ, 4.0),
    (FQ, 200.0),
]


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([1, 2]),
    case=st.sampled_from(CVP_CASES),
    mode=st.sampled_from([U, SU]),
    cutoff=st.sampled_from([0, 1]),
    raw=st.lists(st.floats(-np.pi, np.pi), min_size=4, max_size=4),
)
def test_cvp_exact_against_brute_force(n, case, mode, cutoff, raw):
    family, k = case
    d = 2**n
    theta = np.array(raw[:d])
    if mode == SU:
        theta[-1] = -np.sum(theta[:-1])
    pen = None if k is None else PenaltyFunction(kind="step", k=k, low_weight_cutoff=cutoff)
    spec = MetricSpec(family=family, penalty=pen, mode=mode)
    res = cvp_minimal_pauli_geodesic(spec, theta)
    assert res.certified
    assert res.stats["cosets"] == res.stats["rows"] == d ** (d // 2) // (d if mode == SU else 1)

    kind, w, h, su_sum = _cvp_problem(spec, theta)
    zero = np.zeros(d, dtype=int)
    if mode == SU:
        assert int(np.sum(res.minimizer)) == su_sum
        zero[-1] = su_sum  # the zero shift, moved onto the trace-zero slice
    radius = res.window_used + 1
    box = np.array(list(itertools.product(range(-radius, radius + 1), repeat=d)))
    if mode == SU:
        box = box[box.sum(axis=1) == su_sum]
    brute = float(np.min(_diag_value(kind, w, h, box)))
    assert res.value == pytest.approx(brute, rel=1e-9, abs=1e-12)
    assert res.value <= _diag_value(kind, w, h, zero[None, :])[0] + 1e-12
    assert res.value == pytest.approx(
        _diag_value(kind, w, h, res.minimizer[None, :])[0], rel=1e-12, abs=1e-12
    )


SPLIT_CASES = [(F1, None), (FP, 1.5), (FP, 4.0), (FP, 100.0), (F2, None), (FQ, 4.0), (FQ, 100.0)]


@pytest.mark.parametrize("mode", [U, SU])
@pytest.mark.parametrize("family, k", SPLIT_CASES)
def test_cvp_n3_halves_match_the_flat_coset_table(family, k, mode):
    """The (u | u+v) split against every row of the flat table: the same minimum, and the same
    minimizer but on exact ties (pi/2 multiples provoke them), where F agrees at both."""
    rng = np.random.default_rng(3)
    for cutoff in (1, 2) if k else (None,):
        pen = None if k is None else PenaltyFunction(kind="step", k=k, low_weight_cutoff=cutoff)
        spec = MetricSpec(family=family, penalty=pen, mode=mode)
        for i in range(40):
            theta = rng.uniform(-np.pi, np.pi, 8) if i % 2 else rng.integers(-3, 5, 8) * np.pi / 2
            if mode == SU:
                theta[-1] = -np.sum(theta[:-1])
            res = cvp_minimal_pauli_geodesic(spec, theta)
            value, minimizer = flat_cvp(spec, theta)
            assert res.value == pytest.approx(value, rel=1e-15, abs=1e-300)
            assert res.stats == ({"cosets": 4096, "rows": 512} if mode == U else
                                 {"cosets": 512, "rows": 256})
            if not np.array_equal(res.minimizer, minimizer):
                kind, w, h, _ = _cvp_problem(spec, theta)
                at = _diag_value(kind, w, h, np.array([res.minimizer, minimizer]))
                assert at[0] == pytest.approx(at[1], rel=1e-14, abs=1e-300)
                assert i % 2 == 0  # only the pi/2 multiples tie


COVERAGE_SPECS = [
    F1_U,
    F2_U,
    MetricSpec(family=FP, penalty=PenaltyFunction(kind="step", k=4.0), mode=U),
    MetricSpec(family=FQ, penalty=PenaltyFunction(kind="step", k=100.0, low_weight_cutoff=1), mode=U),
]


@pytest.mark.parametrize("spec", COVERAGE_SPECS)
@pytest.mark.parametrize("r", [1.0, 1.5, 2.5])
def test_monte_carlo_n3_halves_match_the_flat_coset_table(spec, r):
    # F2 at r = 1.5 reads 0.1658 over 10000 samples; half-rows rounded with period 4 read 0.3267
    assert monte_carlo_coverage(spec, r, 3, samples=200, seed=7) == flat_coverage(spec, r, 200, 7)


def _babai_point(kind, w, h, su_sum):
    """Nearest-plane rounding of t = h/2pi in the pruning form, coordinates last to first."""
    d = len(h)
    c = w if kind == "quadratic" else w**2
    W = hadamard(d).astype(float)
    A = W.T @ np.diag(c) @ W / d**2
    t = h / (2 * np.pi)
    if su_sum is not None:
        B = np.vstack([np.eye(d - 1), -np.ones(d - 1)])
        A = B.T @ A @ B
        t = t - np.eye(d)[-1] * su_sum
        t = (t - t.mean())[:-1]
    R = np.linalg.cholesky(A).T
    m = np.zeros(len(t), dtype=int)
    for i in reversed(range(len(t))):
        centre = t[i] + R[i, i + 1:] @ (t[i + 1:] - m[i + 1:]) / R[i, i]
        m[i] = round(centre)
    return m if su_sum is None else np.append(m, su_sum - m.sum())


ALL_FAMILY_SPECS = [
    (F1, None, None),
    (F1DELTA, None, 1e-3),
    (FP, 1.5, None),
    (FP, 4.0, None),
    (FPDELTA, 4.0, 1e-3),
    (F2, None, None),
    (FQ, 4.0, None),
]


@settings(max_examples=120, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    case=st.sampled_from(ALL_FAMILY_SPECS),
    mode=st.sampled_from([U, SU]),
    raw=st.lists(st.floats(-np.pi, np.pi), min_size=8, max_size=8),
)
def test_cvp_never_worse_than_zero_shift_or_babai(n, case, mode, raw):
    family, k, delta = case
    d = 2**n
    theta = np.array(raw[:d])
    if mode == SU:
        theta[-1] = -np.sum(theta[:-1])
    pen = None if k is None else PenaltyFunction(kind="step", k=k)
    spec = MetricSpec(family=family, penalty=pen, mode=mode, delta=delta)
    res = cvp_minimal_pauli_geodesic(spec, theta)
    kind, w, h, su_sum = _cvp_problem(spec, theta)
    zero = np.zeros(d, dtype=int)
    if su_sum is not None:
        zero[-1] = su_sum
    babai = _babai_point(kind, w, h, su_sum)
    at_zero, at_babai = _diag_value(kind, w, h, np.array([zero, babai]))
    assert res.value <= at_zero + 1e-12
    assert res.value <= at_babai + 1e-12


@pytest.mark.parametrize("family, k", [(F1, None), (FP, 4.0), (F2, None), (FQ, 4.0)])
def test_cvp_n3_beats_unit_box(family, k):
    rng = np.random.default_rng(31)
    box = np.array(list(itertools.product((-1, 0, 1), repeat=8)))
    pen = None if k is None else PenaltyFunction(kind="step", k=k)
    spec = MetricSpec(family=family, penalty=pen, mode=U)
    for _ in range(3):
        theta = rng.uniform(-np.pi, np.pi, 8)
        res = cvp_minimal_pauli_geodesic(spec, theta)
        kind, w, h, _ = _cvp_problem(spec, theta)
        assert res.value <= np.min(_diag_value(kind, w, h, box)) + 1e-12


@pytest.mark.parametrize("mode", [U, SU])
def test_cvp_n3_large_penalty_against_brute_force(mode):
    d = 8
    spec = MetricSpec(family=FP, penalty=PenaltyFunction(kind="step", k=100.0), mode=mode)
    box = np.indices((5,) * d).reshape(d, -1).T - 2  # [-2, 2]^8
    y_box = box @ (2 * np.pi / d * hadamard(d))  # Pauli coefficients of 2 pi diag(m)
    rng = np.random.default_rng(41)
    for _ in range(12):
        theta = rng.uniform(-np.pi, np.pi, d)
        if mode == SU:
            theta[-1] = -np.sum(theta[:-1])
        res = cvp_minimal_pauli_geodesic(spec, theta)
        assert res.certified and res.window_used <= 1
        kind, w, h, su_sum = _cvp_problem(spec, theta)
        y = hadamard(d) @ h / d - (y_box if su_sum is None else y_box[box.sum(axis=1) == su_sum])
        brute = float(np.min(np.abs(y) @ w))
        assert res.value == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("mode", [U, SU])
def test_geodesic_hamiltonian_read_back(mode):
    rng = np.random.default_rng(5)
    spec = MetricSpec(family=FQ, penalty=PenaltyFunction(kind="step", k=4.0), mode=mode)
    for n in (1, 2, 3):
        theta = rng.uniform(-np.pi, np.pi, 2**n)
        if mode == SU:
            theta[-1] = -np.sum(theta[:-1])
        res = cvp_minimal_pauli_geodesic(spec, theta)
        H = geodesic_hamiltonian(res)
        assert H.shape == (2**n, 2**n) and np.array_equal(H, H.conj().T)
        assert np.array_equal(H, np.diag(np.diag(H)))
        diag = np.diag(H)
        assert np.max(np.abs(np.exp(-1j * diag) - np.exp(-1j * theta))) < 1e-12
        v = reduce_phases(theta) - 2 * np.pi * res.minimizer
        if mode == SU:
            v = v - np.sum(v) / 2**n
            assert abs(np.sum(diag)) < 1e-12
        assert np.array_equal(diag, v.astype(complex))
        assert not np.shares_memory(H, res.diagonal)  # built afresh from the result


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coset_table_is_a_full_set_of_representatives(n):
    # d^{d/2} = [W Z^d : d Z^d] distinct rows in [0, d)^d, each W m for an integer m
    d = 2**n
    table = _coset_table(n)
    assert table.shape == (d ** (d // 2), d)
    assert len(np.unique(table, axis=0)) == len(table)
    assert np.all((table >= 0) & (table < d))
    assert np.all((table @ hadamard(d)) % d == 0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coset_table_rows_ascend_strictly(n):
    # lexicographic, column 0 first: the SU blocks cosets[r] of _cvp_plan are the rows with c_0 = r
    rows = _coset_table(n).tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))


@pytest.mark.parametrize("d", [1, 2, 4, 8, 16])
def test_walsh_matches_scipy_hadamard(d):
    assert np.array_equal(_walsh(d), hadamard(d).astype(float))


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(sugeo.__file__)))
    code = (
        "import sugeo, sys; "
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')); "
        "sys.exit(f'import sugeo loaded {loaded}' if loaded else 0)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cvp_rejects_non_finite_phases(bad):
    # U and SU; the bad value first (n = 1) or last (n = 2); raw arrays,
    # lists and DiagonalUnitary inputs.  No RuntimeWarning may come first.
    inputs = (
        lambda theta: np.array(theta),
        lambda theta: theta,
        lambda theta: DiagonalUnitary(len(theta).bit_length() - 1, np.array(theta)),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for spec in (F1_U, MetricSpec(family=F2, mode=SU)):
            for theta in ([bad, 0.0], [0.1, -0.2, 0.3, bad]):
                for make in inputs:
                    with pytest.raises(NonFiniteInput):
                        cvp_minimal_pauli_geodesic(spec, make(theta))


@pytest.mark.parametrize("family, mode, theta, value", [
    (F1, U, [1e300, 0.3], 2.418165953062772),
    (F2, U, [1e300, 0.3], 1.7230099501384173),
    (F1, SU, [1e300, -1e300], 2.418165953062772),
    (F2, SU, [1e300, -1e300], 2.418165953062772),
])
def test_cvp_accepts_huge_finite_phases(family, mode, theta, value):
    res = cvp_minimal_pauli_geodesic(MetricSpec(family=family, mode=mode), np.array(theta))
    assert res.value == pytest.approx(value, rel=1e-12)


SHIFT_CASES = [(F1, None), (FP, 4.0), (F2, None), (FQ, 4.0)]


@settings(max_examples=150, deadline=None)
@given(
    n=st.sampled_from([1, 2, 3]),
    case=st.sampled_from(SHIFT_CASES),
    mode=st.sampled_from([U, SU]),
    # phases from a seed, not from hypothesis floats: its repeated values make
    # exact ties between minimizers (equal phases swap), which a shift's last
    # bits then break either way
    seed=st.integers(0, 2**32 - 1),
    k=st.lists(st.integers(-50, 50), min_size=8, max_size=8),
)
def test_cvp_is_invariant_under_2pi_shifts(n, case, mode, seed, k):
    family, kval = case
    d = 2**n
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, d)
    if mode == SU:
        theta[-1] = -np.sum(theta[:-1])
    pen = None if kval is None else PenaltyFunction(kind="step", k=kval)
    spec = MetricSpec(family=family, penalty=pen, mode=mode)
    shifted = theta + 2 * np.pi * np.array(k[:d])
    res, again = (cvp_minimal_pauli_geodesic(spec, t) for t in (theta, shifted))
    assert again.value == pytest.approx(res.value, rel=1e-12, abs=1e-12)
    assert np.max(np.abs(again.diagonal - res.diagonal)) <= 1e-12
    if mode == SU:
        su_sum = round(np.sum(reduce_phases(shifted)) / (2 * np.pi))
        assert int(np.sum(again.minimizer)) == su_sum


def test_unit_ball_volumes_closed_form():
    assert unit_ball_volume(F1_U, 0.7, 1) == pytest.approx(2 * 0.7**2)
    assert unit_ball_volume(F2_U, 0.7, 1) == pytest.approx(np.pi * 0.7**2)
    pen = PenaltyFunction(kind="step", k=9.0, low_weight_cutoff=0)
    spec = MetricSpec(family=FQ, penalty=pen, mode=U)
    # Fq = sqrt(y_I^2 + 9 y_Z^2): an ellipse with semi-axes r and r/3
    assert unit_ball_volume(spec, 0.7, 1) == pytest.approx(np.pi * 0.7**2 / 3.0)
    assert unit_ball_volume(F1_U, 0.0, 1) == 0.0


def test_volumes_and_coverage_reject_non_finite_radii():
    """r = NaN gave 0.0 and an overflowing volume a raw OverflowError."""
    for r in (np.nan, np.inf, -np.inf):
        with pytest.raises(NonFiniteInput):
            unit_ball_volume(F2_U, r, 1)
        with pytest.raises(NonFiniteInput):
            monte_carlo_coverage(F2_U, r, 1, samples=10)
    with pytest.raises(NonFiniteInput, match="overflows"):
        unit_ball_volume(F2_U, 1e300, 3)
    assert unit_ball_volume(F2_U, 1e30, 3) == pytest.approx(1e240 * unit_ball_volume(F2_U, 1.0, 3), rel=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", [U, SU])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "pen",
    [PenaltyFunction(kind="step", k=5.0, low_weight_cutoff=1),
     PenaltyFunction(kind="table", values=(1.0, 2.0, 3.5, 7.0))],
)
def test_diag_weights_are_the_penalty_of_each_diagonal_string(family, mode, n, pen):
    """w_s = p(popcount s) for the penalized families, 1 otherwise, in either mode."""
    spec = MetricSpec(family=family, penalty=pen, delta=1e-3 if family in SMOOTHED else None,
                      mode=mode)
    taxicab, w = _diag_weights(spec, n)
    expected = [
        pen.weight_value(bin(s).count("1")) if family in NEEDS_PENALTY else 1.0
        for s in range(2**n)
    ]
    assert w.tolist() == expected
    assert taxicab == (family not in (F2, FQ))
    assert not w.flags.writeable


def test_fq_unit_ball_volume_matches_monte_carlo():
    """The fraction of a box inside {Fq <= r}, from uniform samples, times the box area.

    The samples are diagonal coefficients (on I and Z); metrics.norms_batch
    scores them as n = 1 U-mode vectors, so the test ties the volume to the
    norm the library computes.
    """
    pen = PenaltyFunction(kind="step", k=9.0, low_weight_cutoff=0)
    spec = MetricSpec(family=FQ, penalty=pen, mode=U)
    r, samples = 0.7, 200_000
    y = np.zeros((samples, 4))
    diagonal = [string_index(1, U)[s] for s in ("I", "Z")]
    y[:, diagonal] = np.random.default_rng(20260822).uniform(-r, r, size=(samples, 2))
    inside = norms_batch(spec, y) <= r
    estimate = (2 * r) ** 2 * inside.mean()
    stderr = (2 * r) ** 2 * math.sqrt(inside.mean() * (1 - inside.mean()) / samples)
    assert abs(estimate - unit_ball_volume(spec, r, 1)) < 4 * stderr


def test_fp_unit_ball_volume_matches_monte_carlo():
    """As for Fq: the hit fraction of a box, scored by norms_batch, times the box area.

    Fp = |y_I| + 4 |y_Z| on the diagonal at n = 1, a rhombus of area r^2/2;
    FpDelta has the same volume, that of its Delta -> 0 limit.
    """
    pen = PenaltyFunction(kind="step", k=4.0, low_weight_cutoff=0)
    spec = MetricSpec(family=FP, penalty=pen, mode=U)
    r, samples = 0.7, 200_000
    y = np.zeros((samples, 4))
    diagonal = [string_index(1, U)[s] for s in ("I", "Z")]
    y[:, diagonal] = np.random.default_rng(20260822).uniform(-r, r, size=(samples, 2))
    inside = norms_batch(spec, y) <= r
    estimate = (2 * r) ** 2 * inside.mean()
    stderr = (2 * r) ** 2 * math.sqrt(inside.mean() * (1 - inside.mean()) / samples)
    volume = unit_ball_volume(spec, r, 1)
    assert volume == pytest.approx(r**2 / 2, rel=1e-14)
    assert abs(estimate - volume) < 4 * stderr
    smoothed = MetricSpec(family=FPDELTA, penalty=pen, delta=1e-3, mode=U)
    assert unit_ball_volume(smoothed, r, 1) == volume


def test_coverage_bound_inverts_volume():
    pen = PenaltyFunction(kind="step", k=5.0, low_weight_cutoff=1)
    specs = [F1_U, F2_U, MetricSpec(family=FQ, penalty=pen, mode=U)]
    for spec in specs:
        for n in (1, 2):
            f = 0.37
            r = coverage_bound(spec, f, n)
            det = math.exp(lattice_log_det(n))
            assert unit_ball_volume(spec, r, n) == pytest.approx(f * det, rel=1e-12)
    with pytest.raises(ValueError):
        coverage_bound(F2_U, 0.0, 1)


def test_phase_lattice_determinant():
    for n in (1, 2, 3):
        d = 2**n
        sign, logdet = np.linalg.slogdet(2 * np.pi * _walsh(d) / d)
        assert abs(logdet - lattice_log_det(n)) < 1e-12


def test_monte_carlo_single_qubit_taxicab():
    frac = monte_carlo_coverage(F1_U, np.pi / 2, 1, samples=3000)
    assert abs(frac - 0.25) < 0.04


def test_volume_and_coverage_reject_su_mode():
    # the traceless lattice has rank d - 1; no formula here covers it
    spec = MetricSpec(family=F2, mode=SU)
    with pytest.raises(UnsupportedSpec):
        monte_carlo_coverage(spec, 1.5, 2, samples=100)
    with pytest.raises(UnsupportedSpec):
        coverage_bound(spec, 0.5, 2)
    with pytest.raises(UnsupportedSpec):
        unit_ball_volume(spec, 1.0, 2)
    # the U-mode answers are unchanged
    assert monte_carlo_coverage(F2_U, 1.5, 2, samples=20000) == 0.26085
    assert coverage_bound(F2_U, 0.5, 2) == pytest.approx(1.7724538509055159, rel=1e-14)
    assert unit_ball_volume(F2_U, 1.0, 2) == pytest.approx(np.pi**2 / 2, rel=1e-14)


def test_monte_carlo_restricted():
    for n in (0, 4):
        with pytest.raises(DimensionLimit):
            monte_carlo_coverage(F1_U, 1.0, n)
    for samples in (0, -5, 2.5, True):  # a float or bool is refused before anything is drawn
        with pytest.raises(ValueError):
            monte_carlo_coverage(F1_U, 1.0, 1, samples=samples)


@pytest.mark.parametrize("spec", [F1_U, F2_U])
@pytest.mark.parametrize("r", [1.0, 1.5, 2.0])
def test_monte_carlo_at_three_qubits_stays_at_or_below_the_volume_ratio(spec, r):
    """Claim (c) at n = 3: the balls of radius r about the lattice points cover at most
    V_F(r)/det L of the cell, so 2000 samples read no more than that plus 3 standard errors.
    Under F2 at r = 1 the balls are disjoint (the shortest lattice vector has length
    2 pi/sqrt(8) > 2), so there the fraction estimates the ratio itself."""
    samples = 2000
    ratio = unit_ball_volume(spec, r, 3) / math.exp(lattice_log_det(3))
    p = min(ratio, 1.0)
    error = 3 * math.sqrt(p * (1 - p) / samples)
    fraction = monte_carlo_coverage(spec, r, 3, samples=samples)
    assert fraction <= ratio + error
    if spec == F2_U and r == 1.0:
        assert abs(fraction - ratio) <= error


@pytest.mark.parametrize("spec", [F1_U, F2_U])
def test_monte_carlo_decisions_at_three_qubits_against_the_certified_cvp(spec):
    for seed in range(5):
        h = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(1, 8))[0]
        dist = cvp_minimal_pauli_geodesic(spec, DiagonalUnitary(3, h)).value
        assert monte_carlo_coverage(spec, dist * (1 + 1e-9), 3, samples=1, seed=seed) == 1.0
        assert monte_carlo_coverage(spec, dist * (1 - 1e-9), 3, samples=1, seed=seed) == 0.0


@pytest.mark.parametrize("spec", [F1_U, F2_U])
def test_monte_carlo_decisions_against_brute_force(spec):
    # one sample per seed, so each call returns that sample's decision; radii
    # just above and below its brute-force distance pin the decoded distance
    d = 4
    kind, w, _, _ = _cvp_problem(spec, np.zeros(d))
    box = np.array(list(itertools.product(range(-2, 3), repeat=d)))
    for seed in range(200):
        h = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(1, d))[0]
        dist = float(np.min(_diag_value(kind, w, h, box)))
        assert monte_carlo_coverage(spec, dist * (1 + 1e-9), 2, samples=1, seed=seed) == 1.0
        assert monte_carlo_coverage(spec, dist * (1 - 1e-9), 2, samples=1, seed=seed) == 0.0


def test_diagonal_unitary_json_roundtrip():
    d = DiagonalUnitary(2, np.array([0.1, -0.2, 0.3, -0.4]))
    again = DiagonalUnitary.from_json(d.to_json())
    assert again.n == 2
    assert np.allclose(again.phases, d.phases)
